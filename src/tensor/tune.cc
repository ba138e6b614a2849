#include "tensor/tune.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/bytes.h"
#include "common/durable.h"
#include "common/metrics.h"

namespace automc {
namespace tensor {
namespace simd {

namespace {

constexpr char kMagic[4] = {'A', 'M', 'T', 'N'};
constexpr uint32_t kVersion = 1;

// Hot-path counters, cached thread-locally and keyed by the registry
// generation so Reset() in tests never leaves a dangling pointer (same
// pattern as the COW counters in tensor.cc).
struct TuneCounters {
  uint64_t generation = ~uint64_t{0};
  metrics::Counter* hits = nullptr;
  metrics::Counter* probes = nullptr;
};

TuneCounters& Counters() {
  thread_local TuneCounters c;
  auto& reg = metrics::MetricsRegistry::Global();
  uint64_t gen = reg.generation();
  if (c.generation != gen) {
    c.hits = &reg.GetCounter("simd.tune_hits");
    c.probes = &reg.GetCounter("simd.tune_probes");
    c.generation = gen;
  }
  return c;
}

int32_t FloorLog2(int64_t v) {
  int32_t lg = 0;
  while (v > 1) {
    v >>= 1;
    ++lg;
  }
  return lg;
}

// op (2 bits) | lg m (6) | lg k (6) | lg n (6) — plenty of headroom for
// int64 extents (lg < 64 fits in 6 bits).
uint32_t ShapeKey(GemmOp op, int64_t m, int64_t k, int64_t n) {
  return (static_cast<uint32_t>(op) << 18) |
         (static_cast<uint32_t>(FloorLog2(std::max<int64_t>(m, 1))) << 12) |
         (static_cast<uint32_t>(FloorLog2(std::max<int64_t>(k, 1))) << 6) |
         static_cast<uint32_t>(FloorLog2(std::max<int64_t>(n, 1)));
}

struct TunerState {
  std::shared_mutex mu;
  std::map<uint32_t, TileParams> table;  // ordered: deterministic file bytes
  bool file_loaded = false;
  bool has_override = false;
  TileParams override_params;
};

TunerState& State() {
  static TunerState* s = new TunerState();
  return *s;
}

std::string CachePath() {
  const char* env = std::getenv("AUTOMC_TUNE_CACHE");
  return (env != nullptr && env[0] != '\0') ? std::string(env)
                                            : std::string();
}

// Mutates st.table on success; any format violation leaves it untouched.
void LoadCacheFileLocked(TunerState& st) {
  std::string path = CachePath();
  if (path.empty()) return;
  Result<std::string> read = durable::ReadFile(path);
  if (!read.ok()) return;
  const std::string& blob = *read;
  if (blob.size() < sizeof(kMagic) + 3 * sizeof(uint32_t)) return;
  size_t payload = blob.size() - sizeof(uint32_t);
  ByteReader tail(std::string_view(blob).substr(payload));
  uint32_t stored_crc = 0;
  if (!tail.U32(&stored_crc) || stored_crc != Crc32(blob.data(), payload)) {
    return;
  }
  ByteReader r(std::string_view(blob).substr(0, payload));
  char magic[4];
  uint32_t version = 0, count = 0;
  if (!r.Raw(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 || !r.U32(&version) ||
      version != kVersion || !r.U32(&count)) {
    return;
  }
  std::map<uint32_t, TileParams> loaded;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t key = 0;
    TileParams p;
    if (!r.U32(&key) || !r.I32(&p.mr) || !r.I32(&p.nv) || !r.I32(&p.kc)) {
      return;
    }
    // Clamp to the kernel table's bounds — a stale file from a future
    // version must not index past kKernels.
    if (p.mr < 1 || p.mr > 6 || p.nv < 1 || p.nv > 3) return;
    loaded.emplace(key, p);
  }
  if (!r.Done()) return;
  for (const auto& [key, p] : loaded) st.table.emplace(key, p);
}

void SaveCacheFileLocked(const TunerState& st) {
  std::string path = CachePath();
  if (path.empty()) return;
  ByteWriter w;
  w.Raw(kMagic, sizeof(kMagic));
  w.U32(kVersion);
  w.U32(static_cast<uint32_t>(st.table.size()));
  for (const auto& [key, p] : st.table) {
    w.U32(key);
    w.I32(p.mr);
    w.I32(p.nv);
    w.I32(p.kc);
  }
  uint32_t crc = Crc32(w.str());
  w.U32(crc);
  // Best effort: a failed save only costs the next process a re-probe.
  (void)durable::AtomicWriteFile(path, w.str());
}

using ProbeBuffer = std::vector<float, AlignedAllocator<float, 64>>;

void FillPattern(ProbeBuffer& buf, uint32_t seed) {
  uint32_t x = seed;
  for (float& v : buf) {
    x = x * 1664525u + 1013904223u;
    v = static_cast<float>(x >> 8) * (1.0f / 16777216.0f) - 0.5f;
  }
}

// Benchmarks the candidate grid on synthetic operands shaped like the
// triggering call (m capped — the best tile barely depends on row count)
// and returns the fastest. Wall-clock noise only affects speed, never
// results, so no attempt is made to stabilise the measurement beyond a
// warm-up pass and a couple of repetitions.
TileParams ProbeShape(GemmOp op, int64_t m, int64_t k, int64_t n) {
  const int64_t pm = std::min<int64_t>(m, 96);
  ProbeBuffer a(static_cast<size_t>(pm * k));
  ProbeBuffer b(static_cast<size_t>(k * n));
  ProbeBuffer c(static_cast<size_t>(pm * n));
  FillPattern(a, 0x41555431u);
  FillPattern(b, 0x4d435455u);
  FillPattern(c, 0x4e453031u);

  const int64_t flops = 2 * pm * k * n;
  const int reps = static_cast<int>(
      std::clamp<int64_t>(1 + (int64_t{4} << 20) / std::max<int64_t>(flops, 1),
                          1, 50));

  static constexpr struct {
    int32_t mr, nv;
  } kGrid[] = {{4, 1}, {4, 2}, {4, 3}, {6, 1}, {6, 2}};

  TileParams best;
  double best_ns = -1.0;
  for (const auto& g : kGrid) {
    for (int32_t kc : {int32_t{0}, int32_t{128}}) {
      if (kc != 0 && k <= kc + 32) continue;  // indistinguishable from full k
      TileParams p{g.mr, g.nv, kc};
      PackedB pb = PackB(op, b.data(), k, n, p.nv);
      GemmRowsAvx2(op, p, a.data(), pb, b.data(), c.data(), pm, k, n, 0, pm);
      auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) {
        GemmRowsAvx2(op, p, a.data(), pb, b.data(), c.data(), pm, k, n, 0,
                     pm);
      }
      auto t1 = std::chrono::steady_clock::now();
      double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
      Counters().probes->Add(1);
      if (best_ns < 0.0 || ns < best_ns) {
        best_ns = ns;
        best = p;
      }
    }
  }
  return best;
}

}  // namespace

TileParams ChooseTile(GemmOp op, int64_t m, int64_t k, int64_t n) {
  TunerState& st = State();
  const uint32_t key = ShapeKey(op, m, k, n);
  {
    std::shared_lock<std::shared_mutex> lk(st.mu);
    if (st.has_override) return st.override_params;
    if (st.file_loaded) {
      auto it = st.table.find(key);
      if (it != st.table.end()) {
        Counters().hits->Add(1);
        return it->second;
      }
    }
  }
  std::unique_lock<std::shared_mutex> lk(st.mu);
  if (st.has_override) return st.override_params;
  if (!st.file_loaded) {
    LoadCacheFileLocked(st);
    st.file_loaded = true;
  }
  auto it = st.table.find(key);
  if (it != st.table.end()) {
    Counters().hits->Add(1);
    return it->second;
  }
  // First touch of this shape class: probe while holding the lock so
  // concurrent callers of the same class wait instead of probing twice.
  TileParams best = ProbeShape(op, m, k, n);
  st.table.emplace(key, best);
  SaveCacheFileLocked(st);
  return best;
}

void SetTileOverrideForTest(const TileParams& p) {
  TunerState& st = State();
  std::unique_lock<std::shared_mutex> lk(st.mu);
  st.has_override = true;
  st.override_params = p;
}

void ClearTileOverrideForTest() {
  TunerState& st = State();
  std::unique_lock<std::shared_mutex> lk(st.mu);
  st.has_override = false;
}

void ResetTunerForTest() {
  TunerState& st = State();
  std::unique_lock<std::shared_mutex> lk(st.mu);
  st.table.clear();
  st.file_loaded = false;
  st.has_override = false;
}

}  // namespace simd
}  // namespace tensor
}  // namespace automc
