#ifndef AUTOMC_ARTIFACT_CHUNK_STORE_H_
#define AUTOMC_ARTIFACT_CHUNK_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/durable.h"
#include "common/result.h"
#include "common/sha256.h"

namespace automc {
namespace artifact {

// Content-addressed chunk storage: fixed-size chunks keyed by their SHA-256
// digest, persisted in CRC-framed append-only pack files with a published
// hash index — the same durable::MmapHashIndex the experience tier uses
// (layout in common/durable.h): lock-serialized publishers, lock-free
// mapped readers, atomic whole-file index replace.
//
// On-disk layout under Options::dir —
//   packs/pack-<n>.bin   append-only durable::FramedLog chunk frames:
//                          u32 len | u32 crc32(payload) | payload
//                        where payload = 32-byte digest || chunk bytes;
//   chunks.idx           the published index: magic "AMAI", 32-byte keys
//                        (the digest), one bucket per chunk locating its
//                        frame (pack file, payload size, offset), plus each
//                        pack's covered bytes, so the next publish replays
//                        only the pack suffix an older index had not seen
//                        and a publish torn between "chunks appended" and
//                        "index replaced" self-heals;
//   index.lock           held by publishers and the GC;
//   quarantine.log       hex digests of chunks that failed verification.
//
// A corrupt, missing or older-version index never fails Open: the store
// degrades to an in-memory index of a replay of every pack frame (metric
// artifact.index_rebuilds), exactly like the experience tier. A
// corrupt *chunk* is a different animal — GetChunk verifies the frame CRC,
// the embedded digest, and the recomputed SHA-256 of the bytes, and
// returns a typed kDataLoss (never the bytes) on any mismatch,
// quarantining the digest (metric artifact.quarantined + quarantine.log).
class ChunkStore {
 public:
  struct Options {
    std::string dir;
    // Chunk size in bytes. 0 reads $AUTOMC_ARTIFACT_CHUNK_SIZE (default
    // 256 KiB); clamped to [4 KiB, 8 MiB] so a chunk always fits a wire
    // frame with generous headroom under the 64 MiB cap.
    size_t chunk_size = 0;
    // Start a new pack file once the current one exceeds this. 0 reads
    // $AUTOMC_ARTIFACT_PACK_MAX (default 64 MiB, min 1 MiB).
    size_t pack_rollover = 0;
  };

  // What one PutChunks call did — the dedup measurement surface.
  struct PutResult {
    std::vector<Sha256Digest> digests;  // one per input chunk, in order
    uint64_t new_chunks = 0;
    uint64_t new_bytes = 0;  // chunk payload bytes actually appended
    uint64_t dup_chunks = 0;
    uint64_t dup_bytes = 0;  // payload bytes dedup avoided appending
  };

  static Result<std::unique_ptr<ChunkStore>> Open(Options options);

  ChunkStore(const ChunkStore&) = delete;
  ChunkStore& operator=(const ChunkStore&) = delete;

  // Splits `blob` into chunk_size() pieces and appends the ones not already
  // stored, then atomically republishes the index. Serialized against other
  // publishers (any process) via the index lock; metrics
  // artifact.chunks_stored / artifact.bytes_stored / artifact.dedup_chunks /
  // artifact.dedup_bytes.
  Result<PutResult> PutBlob(std::string_view blob);

  // Reads and verifies one chunk. kNotFound when the digest is unknown,
  // kDataLoss when the stored bytes fail any integrity check.
  Result<std::string> GetChunk(const Sha256Digest& digest);

  // Rewrites the packs keeping only `live` chunks and publishes an index
  // over the survivors; old packs are deleted after the new index is in
  // place. Returns the payload bytes reclaimed. Every surviving chunk is
  // re-verified on the way through; a corrupt *live* chunk aborts the GC
  // with kDataLoss and leaves the store untouched (a corrupt dead chunk is
  // simply dropped). An old pack that cannot be deleted durably fails the
  // GC after the new index is in place. Metric artifact.gc_reclaimed_bytes.
  Result<uint64_t> CollectGarbage(const std::set<Sha256Digest>& live);

  size_t chunk_size() const { return chunk_size_; }
  // Chunks visible in the current index/fallback view (tests).
  size_t KnownChunks();

 private:
  explicit ChunkStore(const std::string& dir);

  // (Re)loads chunks.idx, falling back to a full pack replay. Caller
  // holds mu_.
  void LoadIndexLocked();
  // Reloads the index if another process published since (one stat when
  // nothing changed). Caller holds mu_.
  void RefreshLocked();
  // Index probe, refreshing once on a miss. Caller holds mu_.
  bool LocateLocked(const Sha256Digest& digest, durable::FrameLoc* loc);
  // The chunk at `loc` (in `draft`'s file table when given), after the
  // frame CRC, embedded-digest and content-digest checks; any failure
  // quarantines `digest`. Caller holds mu_.
  Result<std::string> ReadVerifiedLocked(
      const Sha256Digest& digest, const durable::FrameLoc& loc,
      const durable::MmapHashIndex::Draft* draft = nullptr);
  void QuarantineLocked(const Sha256Digest& digest, const std::string& why);

  std::string dir_;
  size_t chunk_size_ = 0;
  size_t pack_rollover_ = 0;

  std::mutex mu_;  // guards everything below (one Registry is shared by
                   // job threads publishing and the event loop serving)
  durable::MmapHashIndex index_;
  std::set<Sha256Digest> quarantined_;
};

}  // namespace artifact
}  // namespace automc

#endif  // AUTOMC_ARTIFACT_CHUNK_STORE_H_
