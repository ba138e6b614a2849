#include "store/experience_index.h"

#include <filesystem>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/metrics.h"

namespace automc {
namespace store {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kIndexMagic = 0x49584D41;  // "AMXI" read little-endian

// The 8-byte key a record is indexed under: FNV-1a of its key bytes.
std::string HashKey(const Fingerprint& fp, const std::vector<int>& scheme) {
  const std::string key = ExperienceKeyBytes(fp, scheme);
  ByteWriter w;
  w.U64(Fnv1a(key.data(), key.size()));
  return w.Take();
}

durable::MmapHashIndex::Spec IndexSpec(const std::string& dir) {
  durable::MmapHashIndex::Spec spec;
  spec.index_path = dir + "/" + ExperienceIndex::kIndexFile;
  spec.lock_path = dir + "/" + ExperienceIndex::kLockFile;
  spec.data_dir = dir;
  spec.magic = kIndexMagic;
  spec.key_bytes = 8;
  spec.file_header = ExperienceFileHeader();
  spec.max_payload = kExperienceMaxPayload;
  spec.is_data_file = [](std::string_view name) {
    return name.size() > 4 &&
           name.rfind(ExperienceIndex::kSegmentPrefix, 0) == 0 &&
           name.substr(name.size() - 4) == ".bin";
  };
  spec.key_of = [](std::string_view payload, std::string* key) {
    Fingerprint fp;
    EvalRecord rec;
    if (!DecodeExperiencePayload(payload, &fp, &rec)) return false;
    *key = HashKey(fp, rec.scheme);
    return true;
  };
  return spec;
}

}  // namespace

ExperienceIndex::ExperienceIndex(const std::string& dir)
    : index_(IndexSpec(dir)) {}

Result<std::unique_ptr<ExperienceIndex>> ExperienceIndex::OpenOrRebuild(
    const std::string& dir) {
  auto index = std::unique_ptr<ExperienceIndex>(new ExperienceIndex(dir));
  const durable::MmapHashIndex::LoadState state = index->index_.Load();
  if (state != durable::MmapHashIndex::LoadState::kMapped) {
    // Missing/torn/corrupt/older index: the segments are the source of
    // truth. Serve from an in-memory replay; the next publish repairs the
    // file.
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
      return Status::NotFound("experience dir missing: " + dir);
    }
    index->rebuilt_ = true;
    AUTOMC_METRIC_COUNT("store.index_rebuilds");
    if (state == durable::MmapHashIndex::LoadState::kUnusable) {
      AUTOMC_LOG(Warning) << "experience index " << dir << "/" << kIndexFile
                          << " unusable; rebuilt " << index->size()
                          << " records from "
                          << index->index_.files().size() << " segments";
    }
  }
  return index;
}

Result<bool> ExperienceIndex::Find(const Fingerprint& fp,
                                   const std::vector<int>& scheme,
                                   EvalRecord* out) const {
  durable::FrameLoc loc;
  if (!index_.Find(HashKey(fp, scheme), &loc)) return false;
  // A hash match is not identity: read the record (a frame the segment no
  // longer holds is a miss, not an error) and compare the exact key.
  Result<std::string> payload = index_.ReadFrame(loc);
  Fingerprint got_fp;
  EvalRecord rec;
  if (!payload.ok() || !DecodeExperiencePayload(*payload, &got_fp, &rec) ||
      !(got_fp == fp) || rec.scheme != scheme) {
    return false;
  }
  *out = std::move(rec);
  return true;
}

Status PublishExperience(
    const std::string& dir, const std::string& segment_name,
    const std::vector<std::pair<Fingerprint, EvalRecord>>& records) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + dir + ": " + ec.message());
  }
  durable::MmapHashIndex index(IndexSpec(dir));
  AUTOMC_ASSIGN_OR_RETURN(durable::FileLock lock, index.LockPublish());
  index.Load();
  // The published entries plus every segment byte past its covered offset:
  // other workers may have appended since the last publish, and a crashed
  // publisher can leave appended-but-unindexed frames; this sweep is what
  // makes the publish self-healing.
  durable::MmapHashIndex::Draft draft = index.Collect();

  // Append the novel records to this publisher's own segment. One
  // appender per segment file is the invariant that lets readers read it
  // concurrently; the lock we hold also serializes same-segment writers.
  if (!records.empty()) {
    uint32_t seg = 0;
    AUTOMC_ASSIGN_OR_RETURN(durable::FramedLog log,
                            index.OpenForAppend(&draft, segment_name, &seg));
    uint64_t end = log.Size();
    for (const auto& [fp, rec] : records) {
      const std::string payload = EncodeExperiencePayload(fp, rec);
      // First writer wins; by the determinism contract a duplicate key
      // carries the same value, so dropping it loses nothing.
      if (!draft.Add(HashKey(fp, rec.scheme),
                     durable::FrameLoc{seg,
                                       static_cast<uint32_t>(payload.size()),
                                       end})) {
        continue;
      }
      AUTOMC_RETURN_IF_ERROR(log.Append(payload));
      end += 8 + payload.size();
    }
    AUTOMC_RETURN_IF_ERROR(log.Sync());
    draft.files[seg].covered = end;
  }

  AUTOMC_RETURN_IF_ERROR(index.Publish(draft));
  AUTOMC_METRIC_COUNT("store.index_publishes");
  return Status::OK();
}

Status PublishIndex(const std::string& dir) {
  return PublishExperience(dir, "", {});
}

}  // namespace store
}  // namespace automc
