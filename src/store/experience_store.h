#ifndef AUTOMC_STORE_EXPERIENCE_STORE_H_
#define AUTOMC_STORE_EXPERIENCE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/durable.h"
#include "common/result.h"

namespace automc {
namespace store {

class ExperienceIndex;

// Identity of an evaluation context: which search space the strategy indices
// refer to and which pretrained base model they were applied to. Records are
// keyed by this pair, so changing either invalidates old results (they stay
// in the log but can never be served as hits for the new context).
struct Fingerprint {
  uint64_t space = 0;
  uint64_t model = 0;

  bool operator==(const Fingerprint& o) const {
    return space == o.space && model == o.model;
  }
};

// One persisted scheme evaluation. Mirrors search::EvalPoint field-for-field
// (the store sits below the search layer, so it carries the plain values).
struct EvalRecord {
  std::vector<int> scheme;
  double acc = 0.0;
  int64_t params = 0;
  int64_t flops = 0;
  double ar = 0.0;
  double pr = 0.0;
  double fr = 0.0;
  // 7-dim task descriptor of the run that measured this record (empty when
  // the producer had none). Lets ExportSteps rebuild NN_exp training pairs
  // for records measured on other tasks/models.
  std::vector<float> task_features;
};

// A measured one-step transition derived from the log: appending strategy
// `strategy` to some prefix changed accuracy by ar_step and parameters by
// pr_step on the task described by `task_features`. This is exactly the
// (C_i P_{i,j}, Task_k, AR, PR) tuple NN_exp trains on, so accumulated
// search experience warm-starts the knowledge stack of later runs.
struct ExperienceStep {
  int strategy = 0;
  std::vector<float> task_features;
  float ar_step = 0.0f;
  float pr_step = 0.0f;
};

// Crash-safe, append-only on-disk log of evaluation records with an
// in-memory index for O(1) lookup.
//
// File layout: 8-byte header ("AMXP" magic + u32 version), then a
// durable::FramedLog of records (u32 payload_len | u32 crc32 | payload).
// Appends are made durable record-at-a-time, so the only loss mode a crash
// can produce is a torn *final* record. Open() detects that (short read,
// CRC mismatch or undecodable payload), truncates the file back to the last
// valid record, and reports it via store.recovered / store.truncated_bytes.
class ExperienceStore {
 public:
  ExperienceStore(const ExperienceStore&) = delete;
  ExperienceStore& operator=(const ExperienceStore&) = delete;

  // Opens or creates the log at `path`, replaying every valid record into
  // the index. Fails on I/O errors or if `path` is not a store file.
  static Result<std::unique_ptr<ExperienceStore>> Open(const std::string& path);

  // The (space, model) context used by Lookup/Append until the next Bind.
  void Bind(const Fingerprint& fp) { bound_ = fp; }
  const Fingerprint& bound() const { return bound_; }
  // Task descriptor attached to every subsequent Append (may be empty).
  void set_task_features(std::vector<float> features) {
    task_features_ = std::move(features);
  }

  // Returns the record for `scheme` under the bound fingerprint, or nullptr.
  // Counts store.hits / store.misses.
  const EvalRecord* Lookup(const std::vector<int>& scheme);
  // Lookup without touching the hit/miss counters. Safe to call from worker
  // threads while no writer is active (speculative batch evaluation probes
  // the index concurrently; the accounted Lookup happens later, serially).
  const EvalRecord* Peek(const std::vector<int>& scheme) const;
  // True without touching the hit/miss counters (existence probes).
  bool Contains(const std::vector<int>& scheme) const;

  // Appends one record under the bound fingerprint (current task features
  // attached) and durably flushes it. Re-appending an existing key is a
  // no-op: by the determinism contract the value could not have changed.
  Status Append(const EvalRecord& record);

  // Attaches the fleet's shared read-mostly experience tier (not owned;
  // must outlive the store). Lookup/Peek/Contains consult it on a local
  // miss, so a scheme any worker ever evaluated is served without a real
  // strategy execution. Shared hits are cached locally for pointer
  // stability but deliberately kept out of the log, the insertion order
  // and loaded_size(): ExportSteps and the kg warm-start cutoff see
  // exactly what a direct, unshared run sees — the byte-identity
  // contract for served outcomes depends on it.
  void AttachShared(const ExperienceIndex* shared) { shared_ = shared; }

  // Every record in the log, in insertion order (loaded + appended) —
  // what the job publishes into its fleet segment after finishing.
  // Excludes shared-tier cache entries.
  const std::vector<std::pair<Fingerprint, const EvalRecord*>>& records()
      const {
    return order_;
  }

  // Derives NN_exp training pairs from the log: every record with a
  // non-empty scheme whose immediate prefix is also in the log (under the
  // same fingerprint) yields one step. `space_fp` filters to records whose
  // strategy indices are meaningful for the caller's search space; records
  // from *other* base models are included — cross-task experience is the
  // point. `limit_records` caps the scan to the first N log records (0 =
  // all); resumed runs pass the count their original run saw, so the export
  // replays identically.
  std::vector<ExperienceStep> ExportSteps(uint64_t space_fp,
                                          uint64_t limit_records = 0) const;

  // Counters (also mirrored as store.* metrics).
  int64_t appends() const { return appends_; }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t recovered() const { return recovered_; }
  int64_t truncated_bytes() const { return truncated_bytes_; }
  // Records currently indexed / records replayed from disk at Open() time.
  size_t size() const { return order_.size(); }
  size_t loaded_size() const { return static_cast<size_t>(recovered_); }

  const std::string& path() const { return path_; }

 private:
  ExperienceStore() = default;

  // Probes the shared tier on a local miss (nullptr when detached).
  // Returns the cache-resident record or nullptr.
  const EvalRecord* SharedProbe(const std::vector<int>& scheme) const;

  std::string path_;
  durable::FramedLog log_;
  Fingerprint bound_;
  std::vector<float> task_features_;

  // Fleet shared tier + local cache of its hits. The mutex makes Peek's
  // concurrent probes (speculative batch evaluation) safe while the cache
  // mutates; the primary index_ stays single-writer as before.
  const ExperienceIndex* shared_ = nullptr;
  mutable std::mutex shared_mu_;
  mutable std::map<std::string, EvalRecord, std::less<>> shared_cache_;

  // Index over the log, plus the fingerprint and insertion order of each
  // record (ExportSteps walks records in log order for replayable cutoffs).
  std::map<std::string, EvalRecord, std::less<>> index_;
  std::vector<std::pair<Fingerprint, const EvalRecord*>> order_;

  int64_t appends_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t recovered_ = 0;
  int64_t truncated_bytes_ = 0;
};

// FNV-1a over a byte span; the building block both fingerprint helpers and
// the store's index keys use.
uint64_t Fnv1a(const void* data, size_t n, uint64_t seed = 14695981039346656037ull);

// On-disk constants and codec of the AMXP log format, shared between the
// store and the fleet's experience index (which reads raw segment files).
inline constexpr char kExperienceMagic[4] = {'A', 'M', 'X', 'P'};
inline constexpr uint32_t kExperienceVersion = 1;
inline constexpr uint32_t kExperienceMaxPayload = 1u << 20;
// The 8 header bytes every AMXP file starts with.
std::string ExperienceFileHeader();

std::string EncodeExperiencePayload(const Fingerprint& fp,
                                    const EvalRecord& rec);
bool DecodeExperiencePayload(std::string_view payload, Fingerprint* fp,
                             EvalRecord* rec);
// The store's index-key bytes for (fp, scheme) — what the shared index
// hashes, so both tiers agree on record identity.
std::string ExperienceKeyBytes(const Fingerprint& fp,
                               const std::vector<int>& scheme);

}  // namespace store
}  // namespace automc

#endif  // AUTOMC_STORE_EXPERIENCE_STORE_H_
