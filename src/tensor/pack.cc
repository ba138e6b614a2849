#include <cstdint>
#include <cstring>
#include <new>

#include "tensor/simd.h"

namespace automc {
namespace tensor {
namespace simd {

namespace {

// Growable 64-byte-aligned per-thread pack scratch. One buffer per thread
// suffices: a GEMM packs, then consumes the packed panels inside its own
// ParallelFor before returning, and nested GEMMs (conv's per-group calls
// from inside a worker) run their loops inline, so a thread never packs
// while an earlier pack on the same thread is still live.
struct PackScratch {
  float* data = nullptr;
  size_t capacity = 0;

  ~PackScratch() { ::operator delete(data, std::align_val_t(64)); }

  float* Ensure(size_t n) {
    if (n > capacity) {
      ::operator delete(data, std::align_val_t(64));
      size_t want = capacity ? capacity : size_t{1} << 12;
      while (want < n) want *= 2;
      data = static_cast<float*>(
          ::operator new(want * sizeof(float), std::align_val_t(64)));
      capacity = want;
    }
    return data;
  }
};

thread_local PackScratch t_pack_scratch;

}  // namespace

PackedB PackB(GemmOp op, const float* b, int64_t k, int64_t n, int32_t nv) {
  PackedB out;
  out.n8 = n / 8;
  out.nv = nv;
  if (out.n8 == 0 || k == 0) return out;

  float* dst = t_pack_scratch.Ensure(static_cast<size_t>(k * out.n8 * 8));
  out.data = dst;

  // Panel groups of width 8*nv columns (the last group may be narrower):
  // group g holds k rows of 8*w contiguous floats starting at column
  // g*8*nv. Group starts are 32-byte aligned by construction (8 floats per
  // panel row), so the microkernel can use aligned vector loads.
  int64_t panels_left = out.n8;
  int64_t col0 = 0;
  while (panels_left > 0) {
    int64_t w = panels_left < nv ? panels_left : nv;
    int64_t row_floats = 8 * w;
    if (op == GemmOp::kTransposeB) {
      // b'(kk, j) = b[j*k + kk]: transpose-gather one source row (a column
      // of B') at a time so reads stay contiguous.
      for (int64_t j = 0; j < row_floats; ++j) {
        const float* src = b + (col0 + j) * k;
        float* lane = dst + j;
        for (int64_t kk = 0; kk < k; ++kk) lane[kk * row_floats] = src[kk];
      }
    } else {
      // B is row-major [k, n]: each packed row is a straight copy.
      for (int64_t kk = 0; kk < k; ++kk) {
        std::memcpy(dst + kk * row_floats, b + kk * n + col0,
                    static_cast<size_t>(row_floats) * sizeof(float));
      }
    }
    dst += k * row_floats;
    col0 += row_floats;
    panels_left -= w;
  }
  return out;
}

}  // namespace simd
}  // namespace tensor
}  // namespace automc
