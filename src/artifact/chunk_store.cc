#include "artifact/chunk_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace automc {
namespace artifact {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kIndexMagic = 0x49414D41;  // "AMAI" read little-endian
constexpr size_t kDigestBytes = 32;

constexpr size_t kMinChunk = 4u << 10;
constexpr size_t kMaxChunk = 8u << 20;
constexpr size_t kDefaultChunk = 256u << 10;
constexpr size_t kMinRollover = 1u << 20;
constexpr size_t kDefaultRollover = 64u << 20;

size_t SizeFromEnv(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || v == 0) return fallback;
  return static_cast<size_t>(v);
}

std::string PackName(uint32_t pack_id) {
  char name[32];
  std::snprintf(name, sizeof(name), "pack-%06u.bin", pack_id);
  return name;
}

// Exact "pack-<n>.bin" names only, so a stray file that merely starts like
// one (a temp file, an editor backup) is never taken for a pack.
bool ParsePackName(std::string_view name, uint32_t* id) {
  unsigned parsed = 0;
  if (std::sscanf(std::string(name).c_str(), "pack-%06u.bin", &parsed) != 1 ||
      parsed == 0 || PackName(parsed) != name) {
    return false;
  }
  *id = parsed;
  return true;
}

// The highest pack id in a draft's file table, which Collect() fills with
// every pack on disk; 0 when there is none.
uint32_t LastPackId(const durable::MmapHashIndex::Draft& draft) {
  uint32_t last = 0;
  for (const durable::MmapHashIndex::File& file : draft.files) {
    uint32_t id = 0;
    if (ParsePackName(file.name, &id)) last = std::max(last, id);
  }
  return last;
}

std::string_view DigestKey(const Sha256Digest& digest) {
  return std::string_view(reinterpret_cast<const char*>(digest.data()),
                          digest.size());
}

durable::MmapHashIndex::Spec IndexSpec(const std::string& dir) {
  durable::MmapHashIndex::Spec spec;
  spec.index_path = dir + "/chunks.idx";
  spec.lock_path = dir + "/index.lock";
  spec.data_dir = dir + "/packs";
  spec.magic = kIndexMagic;
  spec.key_bytes = kDigestBytes;
  spec.max_payload = kDigestBytes + kMaxChunk;
  spec.is_data_file = [](std::string_view name) {
    uint32_t id = 0;
    return ParsePackName(name, &id);
  };
  spec.key_of = [](std::string_view payload, std::string* key) {
    if (payload.size() <= kDigestBytes) return false;
    *key = std::string(payload.substr(0, kDigestBytes));
    return true;
  };
  return spec;
}

// Appends chunk frames to packs, indexing each one in `draft`, and rolls
// over to the next pack id once the current pack is past `rollover` bytes.
// A pack is opened at its clean end, which cuts off a torn tail a crashed
// publisher left.
class PackWriter {
 public:
  PackWriter(const durable::MmapHashIndex& index, size_t rollover,
             durable::MmapHashIndex::Draft* draft)
      : index_(index), rollover_(rollover), draft_(draft) {}

  Status Open(uint32_t id) {
    id_ = id;
    AUTOMC_ASSIGN_OR_RETURN(pack_,
                            index_.OpenForAppend(draft_, PackName(id), &file_));
    size_ = pack_.Size();
    return Status::OK();
  }

  Status Add(const Sha256Digest& digest, std::string_view data) {
    if (size_ > rollover_) {
      AUTOMC_RETURN_IF_ERROR(pack_.Sync());
      AUTOMC_RETURN_IF_ERROR(Open(id_ + 1));
    }
    std::string payload(DigestKey(digest));  // digest || bytes
    payload.append(data);
    AUTOMC_RETURN_IF_ERROR(pack_.Append(payload));
    draft_->Add(std::string(DigestKey(digest)),
                durable::FrameLoc{file_, static_cast<uint32_t>(payload.size()),
                                  size_});
    size_ += 8 + payload.size();
    draft_->files[file_].covered = size_;
    return Status::OK();
  }

  Status Sync() { return pack_.Sync(); }
  uint32_t id() const { return id_; }

 private:
  const durable::MmapHashIndex& index_;
  size_t rollover_;
  durable::MmapHashIndex::Draft* draft_;
  durable::FramedLog pack_;
  uint32_t id_ = 0;
  uint32_t file_ = 0;
  uint64_t size_ = 0;
};

}  // namespace

ChunkStore::ChunkStore(const std::string& dir)
    : dir_(dir), index_(IndexSpec(dir)) {}

Result<std::unique_ptr<ChunkStore>> ChunkStore::Open(Options options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("ChunkStore needs a directory");
  }
  std::unique_ptr<ChunkStore> store(new ChunkStore(options.dir));
  size_t chunk = options.chunk_size != 0
                     ? options.chunk_size
                     : SizeFromEnv("AUTOMC_ARTIFACT_CHUNK_SIZE", kDefaultChunk);
  store->chunk_size_ = std::clamp(chunk, kMinChunk, kMaxChunk);
  size_t roll = options.pack_rollover != 0
                    ? options.pack_rollover
                    : SizeFromEnv("AUTOMC_ARTIFACT_PACK_MAX", kDefaultRollover);
  store->pack_rollover_ = std::max(roll, kMinRollover);
  std::error_code ec;
  fs::create_directories(store->dir_ + "/packs", ec);
  if (ec) {
    return Status::Internal("cannot create " + store->dir_ +
                            "/packs: " + ec.message());
  }
  std::unique_lock<std::mutex> lock(store->mu_);
  store->LoadIndexLocked();
  lock.unlock();
  return store;
}

void ChunkStore::LoadIndexLocked() {
  const durable::MmapHashIndex::LoadState state = index_.Load();
  // Missing or unusable index: Load degraded to a full pack replay. Strictly
  // a read-side fallback — the next publish rewrites a good index.
  if (state == durable::MmapHashIndex::LoadState::kUnusable ||
      (state == durable::MmapHashIndex::LoadState::kAbsent &&
       index_.size() > 0)) {
    AUTOMC_METRIC_COUNT("artifact.index_rebuilds");
    AUTOMC_LOG(Warning) << "artifact index " << dir_
                        << "/chunks.idx unusable; replaying packs ("
                        << index_.size() << " chunks)";
  }
}

void ChunkStore::RefreshLocked() {
  if (index_.Stale()) LoadIndexLocked();
}

bool ChunkStore::LocateLocked(const Sha256Digest& digest,
                              durable::FrameLoc* loc) {
  if (index_.Find(DigestKey(digest), loc)) return true;
  // Another process may have published since we mapped the index.
  RefreshLocked();
  return index_.Find(DigestKey(digest), loc);
}

size_t ChunkStore::KnownChunks() {
  std::unique_lock<std::mutex> lock(mu_);
  RefreshLocked();
  return index_.size();
}

void ChunkStore::QuarantineLocked(const Sha256Digest& digest,
                                  const std::string& why) {
  if (!quarantined_.insert(digest).second) return;
  AUTOMC_METRIC_COUNT("artifact.quarantined");
  AUTOMC_LOG(Warning) << "artifact chunk " << HexDigest(digest)
                      << " quarantined: " << why;
  // Best-effort durable breadcrumb for the operator runbook.
  int fd = ::open((dir_ + "/quarantine.log").c_str(),
                  O_CREAT | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd >= 0) {
    const std::string line = HexDigest(digest) + " " + why + "\n";
    [[maybe_unused]] ssize_t ignored = ::write(fd, line.data(), line.size());
    ::close(fd);
  }
}

Result<std::string> ChunkStore::ReadVerifiedLocked(
    const Sha256Digest& digest, const durable::FrameLoc& loc,
    const durable::MmapHashIndex::Draft* draft) {
  Result<std::string> payload = index_.ReadFrame(loc, draft);
  std::string why;
  if (!payload.ok()) {
    why = payload.status().message();
  } else if (payload->compare(0, kDigestBytes, DigestKey(digest)) != 0) {
    why = "stored under a different digest";
  } else {
    payload->erase(0, kDigestBytes);
    if (Sha256::Hash(*payload) == digest) return payload;
    why = "content does not match its digest";
  }
  QuarantineLocked(digest, why);
  return Status::DataLoss("chunk " + HexDigest(digest) + ": " + why);
}

Result<std::string> ChunkStore::GetChunk(const Sha256Digest& digest) {
  std::unique_lock<std::mutex> lock(mu_);
  if (quarantined_.count(digest) != 0) {
    return Status::DataLoss("chunk " + HexDigest(digest) + " is quarantined");
  }
  durable::FrameLoc loc;
  if (!LocateLocked(digest, &loc)) {
    return Status::NotFound("no chunk " + HexDigest(digest));
  }
  return ReadVerifiedLocked(digest, loc);
}

Result<ChunkStore::PutResult> ChunkStore::PutBlob(std::string_view blob) {
  std::unique_lock<std::mutex> lock(mu_);
  AUTOMC_ASSIGN_OR_RETURN(durable::FileLock publish, index_.LockPublish());
  RefreshLocked();
  durable::MmapHashIndex::Draft draft = index_.Collect();

  PackWriter writer(index_, pack_rollover_, &draft);
  AUTOMC_RETURN_IF_ERROR(writer.Open(std::max(LastPackId(draft), 1u)));

  PutResult res;
  for (size_t pos = 0; pos < blob.size(); pos += chunk_size_) {
    const std::string_view piece = blob.substr(pos, chunk_size_);
    const Sha256Digest digest = Sha256::Hash(piece);
    res.digests.push_back(digest);
    if (draft.entries.count(DigestKey(digest)) != 0) {
      ++res.dup_chunks;
      res.dup_bytes += piece.size();
      continue;
    }
    AUTOMC_RETURN_IF_ERROR(writer.Add(digest, piece));
    ++res.new_chunks;
    res.new_bytes += piece.size();
  }
  if (res.new_chunks > 0) AUTOMC_RETURN_IF_ERROR(writer.Sync());

  AUTOMC_METRIC_COUNT("artifact.chunks_stored",
                      static_cast<int64_t>(res.new_chunks));
  AUTOMC_METRIC_COUNT("artifact.bytes_stored",
                      static_cast<int64_t>(res.new_bytes));
  AUTOMC_METRIC_COUNT("artifact.dedup_chunks",
                      static_cast<int64_t>(res.dup_chunks));
  AUTOMC_METRIC_COUNT("artifact.dedup_bytes",
                      static_cast<int64_t>(res.dup_bytes));
  AUTOMC_RETURN_IF_ERROR(index_.Publish(draft));
  AUTOMC_METRIC_COUNT("artifact.index_publishes");
  return res;
}

Result<uint64_t> ChunkStore::CollectGarbage(
    const std::set<Sha256Digest>& live) {
  std::unique_lock<std::mutex> lock(mu_);
  AUTOMC_ASSIGN_OR_RETURN(durable::FileLock publish, index_.LockPublish());
  RefreshLocked();
  const durable::MmapHashIndex::Draft old = index_.Collect();

  const uint32_t first_new = LastPackId(old) + 1;
  durable::MmapHashIndex::Draft kept;
  PackWriter writer(index_, pack_rollover_, &kept);
  uint64_t reclaimed = 0;
  auto abort_gc = [&](Status why) -> Status {
    for (uint32_t id = first_new; id <= writer.id(); ++id) {
      ::unlink((dir_ + "/packs/" + PackName(id)).c_str());
    }
    return why;
  };
  if (Status st = writer.Open(first_new); !st.ok()) return abort_gc(st);

  for (const auto& [key, loc] : old.entries) {
    Sha256Digest digest;
    std::memcpy(digest.data(), key.data(), kDigestBytes);
    if (live.find(digest) == live.end()) {
      reclaimed += loc.size - kDigestBytes;
      continue;
    }
    // Copy-through re-verifies every survivor; a corrupt live chunk must
    // abort (the data is unrecoverable and deleting the old pack would
    // destroy the evidence), while a corrupt dead chunk was reclaimable
    // anyway.
    Result<std::string> data = ReadVerifiedLocked(digest, loc, &old);
    if (!data.ok()) {
      return abort_gc(Status::DataLoss("GC aborted: live " +
                                       data.status().message()));
    }
    if (Status st = writer.Add(digest, *data); !st.ok()) return abort_gc(st);
  }
  if (Status st = writer.Sync(); !st.ok()) return abort_gc(st);
  if (Status st = index_.Publish(kept); !st.ok()) return abort_gc(st);
  AUTOMC_METRIC_COUNT("artifact.index_publishes");
  // The new index no longer references the old packs; readers mapping the
  // *old* index can still serve from them until they refresh, which is why
  // deletion comes last (an in-flight GetChunk re-probes after a miss).
  for (const durable::MmapHashIndex::File& file : old.files) {
    ::unlink((dir_ + "/packs/" + file.name).c_str());
  }
  AUTOMC_METRIC_COUNT("artifact.gc_runs");
  AUTOMC_METRIC_COUNT("artifact.gc_reclaimed_bytes",
                      static_cast<int64_t>(reclaimed));
  return reclaimed;
}

}  // namespace artifact
}  // namespace automc
