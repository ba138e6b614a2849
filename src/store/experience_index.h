#ifndef AUTOMC_STORE_EXPERIENCE_INDEX_H_
#define AUTOMC_STORE_EXPERIENCE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/durable.h"
#include "common/result.h"
#include "store/experience_store.h"

namespace automc {
namespace store {

// Shared read-mostly experience tier: a directory of append-only AMXP
// segment files (one appender each, "seg-<worker>.bin") plus one
// published hash index over all of them ("index.amxi"), so a fleet of
// workers shares every tenant's strategy evaluations without replaying
// each other's logs at open.
//
// The index is a durable::MmapHashIndex (layout in common/durable.h) with
// magic "AMXI" and 8-byte keys: the FNV-1a of a record's index key bytes.
// Each bucket locates one record frame (segment, payload size, offset);
// Find() reads that frame and compares the decoded fingerprint + scheme
// exactly, so a record whose hash merely collides is never mis-served.
// Publishers dedup by hash (first writer wins; a colliding record costs
// one warm hit, never a wrong result).
//
// Concurrency contract: writers publish under the index's FileLock
// ("index.lock") and replace the whole index file atomically; readers map
// the published file and never take the lock, so readers never block the
// appender (and vice versa). `covered` offsets make the next publish
// incremental: only segment bytes past the last indexed offset are
// replayed.
class ExperienceIndex {
 public:
  static constexpr const char* kIndexFile = "index.amxi";
  static constexpr const char* kLockFile = "index.lock";
  static constexpr const char* kSegmentPrefix = "seg-";

  // Opens <dir>/index.amxi. A missing, torn, or corrupted index never
  // fails the open: the segments are the source of truth, so the reader
  // falls back to replaying them into an in-memory index (rebuilt() turns
  // true and store.index_rebuilds counts it). Fails only when `dir` is
  // unusable.
  static Result<std::unique_ptr<ExperienceIndex>> OpenOrRebuild(
      const std::string& dir);
  ExperienceIndex(const ExperienceIndex&) = delete;
  ExperienceIndex& operator=(const ExperienceIndex&) = delete;

  // Exact lookup. Returns true and fills *out on a hit. Thread-safe: the
  // index is immutable once open and records are read with positional
  // reads.
  Result<bool> Find(const Fingerprint& fp, const std::vector<int>& scheme,
                    EvalRecord* out) const;

  uint64_t generation() const { return index_.generation(); }
  size_t size() const { return index_.size(); }
  // True when the index file was unusable and lookups are served from the
  // in-memory replay of the segments.
  bool rebuilt() const { return rebuilt_; }

 private:
  explicit ExperienceIndex(const std::string& dir);

  durable::MmapHashIndex index_;
  bool rebuilt_ = false;
};

// Appends `records` to <dir>/<segment_name> (created with an AMXP header
// on first use; one appender per segment file) and publishes a fresh
// index over every "seg-*.bin" in `dir`, all under the index lock. A torn
// tail a crashed appender left on the segment is truncated first.
// Records whose key already appears in the index are skipped — by the
// determinism contract a duplicate key carries an identical value, so
// first-writer-wins loses nothing. Pass an empty `records` (with any
// segment name) to just rebuild + publish the index.
Status PublishExperience(
    const std::string& dir, const std::string& segment_name,
    const std::vector<std::pair<Fingerprint, EvalRecord>>& records);

// Rebuild + atomically publish <dir>/index.amxi from the segments alone.
Status PublishIndex(const std::string& dir);

}  // namespace store
}  // namespace automc

#endif  // AUTOMC_STORE_EXPERIENCE_INDEX_H_
