#ifndef AUTOMC_COMMON_DURABLE_H_
#define AUTOMC_COMMON_DURABLE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace automc {
namespace durable {

// The one home of the durable-file mechanics under job files, checkpoints,
// experience logs, the shared experience index, the artifact registry and
// the whole-file outputs (models, outcomes, CSVs, the metrics export). A
// write through this layer survives a process kill or a power loss at any
// instant: a whole-file replace leaves the old file or the new one, and a
// framed log loses at most a torn final frame. A replace writes a temp
// file named after the target, the process id and a per-process counter,
// so concurrent writers of one path never mix bytes (the last to finish
// wins); directory scans match their data files exactly, so a temp file a
// crash left behind is never read.

inline constexpr size_t kNoSizeLimit = std::numeric_limits<size_t>::max();

// kNotFound when `path` does not exist; kDataLoss past `max_bytes`.
Result<std::string> ReadFile(const std::string& path,
                             size_t max_bytes = kNoSizeLimit);

using ByteSink = std::function<Status(std::string_view bytes)>;

// Replaces `path` atomically: writes a fresh temp file beside it, syncs it
// to disk, moves it over `path`, then syncs the directory. On failure the
// temp file is deleted and `path` is untouched; kNotFound when its
// directory does not exist. Mode: 0666 & ~umask. A `path` that exists and
// is not itself a regular file (a symlink, a device such as /dev/stdout,
// or a FIFO) is opened and written in place instead, with no temp file and
// no sync, so the link, device or pipe stays what it is.
Status AtomicWriteFile(const std::string& path, std::string_view bytes);
// Streaming form: `produce` writes through the sink; an error from either
// aborts the replace.
Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(const ByteSink&)>& produce);

// Deletes `path`, then syncs its directory: POSIX makes an unlink durable
// only once the directory is synced, so without it a deleted file can come
// back after a power loss. kNotFound when `path` does not exist.
Status RemoveFile(const std::string& path);

// Sealed blob files: a fixed header, then the body under a CRC.
//   header | u32 crc32(body) | body
// Job spec.bin / outcome.bin and artifact .mf manifests use a 4-byte magic
// as the header; checkpoint.bin uses its magic and a u32 version.
Status WriteSealedFile(const std::string& path, std::string_view header,
                       std::string_view body);
// Returns the body; kDataLoss on a foreign header, a bad CRC, or too many
// bytes.
Result<std::string> ReadSealedFile(const std::string& path,
                                   std::string_view header,
                                   size_t max_bytes = kNoSizeLimit);

// An exclusive advisory lock on `path` (created if missing) until
// destruction. Serializes writers across threads and processes.
class FileLock {
 public:
  static Result<FileLock> Acquire(const std::string& path);
  FileLock(FileLock&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  FileLock& operator=(FileLock&&) = delete;
  ~FileLock();

 private:
  explicit FileLock(int fd) : fd_(fd) {}
  int fd_ = -1;
};

// An append-only file of frames, after an optional caller-owned header:
//   u32 payload_len | u32 crc32(payload) | payload
// Torn-tail rule: a scan stops at the first frame that is short, over the
// caller's bound, fails its CRC, or is rejected by the caller, and returns
// that offset, the clean end. Writers open with OpenForAppend, which cuts
// the file back to its clean end, so frames never follow garbage.
class FramedLog {
 public:
  using FrameFn =
      std::function<bool(uint64_t offset, std::string_view payload)>;

  // Read-only; kNotFound when missing.
  static Result<FramedLog> OpenRead(const std::string& path);
  // Opens (creating) `path` for appending at its clean end: writes `header`
  // into an empty or torn-at-birth file (kInvalidArgument when the file
  // starts with other bytes), scans the frames from `from` (at least the
  // header's end) with `fn`, and truncates whatever follows the last one
  // accepted. *dropped gets the number of bytes cut.
  static Result<FramedLog> OpenForAppend(const std::string& path,
                                         std::string_view header,
                                         uint64_t from, uint32_t max_payload,
                                         const FrameFn& fn,
                                         uint64_t* dropped = nullptr);

  FramedLog() = default;
  FramedLog(FramedLog&& other) noexcept { *this = std::move(other); }
  FramedLog& operator=(FramedLog&& other) noexcept {
    std::swap(fd_, other.fd_);
    std::swap(path_, other.path_);
    std::swap(dir_pending_, other.dir_pending_);
    return *this;
  }
  ~FramedLog();

  uint64_t Size() const;
  // Exactly `n` bytes at `offset`; false on a short read.
  bool ReadAt(uint64_t offset, size_t n, std::string* out) const;
  // The frame at `offset` with a `len`-byte payload, read in one call;
  // kDataLoss when it is short or fails its length or CRC check.
  Result<std::string> ReadFrame(uint64_t offset, uint32_t len) const;
  // Visits frames from `from` while `fn` returns true, reading frame by
  // frame; returns the clean end (never past the end of the file).
  uint64_t Scan(uint64_t from, uint32_t max_payload, const FrameFn& fn) const;

  Status Append(std::string_view payload);  // one frame at the end
  // Makes all appends durable; the first call on a handle that created the
  // file also syncs its directory entry.
  Status Sync();

 private:
  int fd_ = -1;
  std::string path_;
  bool dir_pending_ = false;
};

// Where one frame lives.
struct FrameLoc {
  uint32_t file = 0;    // position in the index's file table
  uint32_t size = 0;    // payload bytes
  uint64_t offset = 0;  // frame start
};

// A published, memory-mapped hash index over the frames of a directory of
// framed-log data files. Publishers hold the lock and replace the index
// file atomically; readers map it and never lock. The index is derived
// data: when it is missing or unusable (torn, corrupt, older version),
// Load() indexes a replay of the data files in memory instead, and the
// next publish rewrites the file. Layout (little-endian):
//
//   u32 magic | u32 version (2) | u64 generation | u32 key_bytes
//   | u32 file_count | file_count * { u32 name_len | name | u64 covered }
//   | u64 entry_count | u64 bucket_count (power of two)
//   | bucket_count * { key[key_bytes] | u32 file | u32 size | u64 offset }
//   | u32 crc32(everything above)
//
// `file` indexes the file table (0xFFFFFFFF = empty bucket), whose names
// must all be data file names; `size` and `offset` locate the frame. Buckets are linear-probed from the key's first
// 8 bytes at <= 50% load. `covered` is each file's clean end at publish:
// the next publisher sweeps only past it, which also indexes frames a
// crashed publisher appended but never published.
class MmapHashIndex {
 public:
  struct Spec {
    std::string index_path, lock_path, data_dir;
    uint32_t magic = 0;
    uint32_t key_bytes = 8;  // >= 8
    std::string file_header;  // every data file starts with it ("" = none)
    uint32_t max_payload = 0;
    std::function<bool(std::string_view name)> is_data_file;
    // The key of a frame; false stops that file's sweep (a torn frame).
    std::function<bool(std::string_view payload, std::string* key)> key_of;
  };
  struct File {
    std::string name;
    uint64_t covered = 0;
  };
  // A publisher's working copy; the first writer of a key wins.
  struct Draft {
    std::vector<File> files;
    std::map<std::string, FrameLoc, std::less<>> entries;

    uint32_t FileId(std::string_view name);
    bool Add(std::string key, const FrameLoc& loc) {
      return entries.emplace(std::move(key), loc).second;
    }
  };
  enum class LoadState { kMapped, kAbsent, kUnusable };

  explicit MmapHashIndex(Spec spec) : spec_(std::move(spec)) {}
  ~MmapHashIndex();
  MmapHashIndex(const MmapHashIndex&) = delete;
  MmapHashIndex& operator=(const MmapHashIndex&) = delete;

  LoadState Load();
  // The index file changed (inode, size or mtime) since Load().
  bool Stale() const;
  bool Find(std::string_view key, FrameLoc* loc) const;
  // The payload of the frame at `loc`, a location from Find() or, with
  // `draft`, from that draft (Collect() may add files the loaded view
  // lacks). kDataLoss when the data file is gone or the frame is over the
  // spec's bound, short, or fails its CRC.
  Result<std::string> ReadFrame(const FrameLoc& loc,
                                const Draft* draft = nullptr) const;

  size_t size() const { return entry_count_; }
  uint64_t generation() const { return generation_; }
  const std::vector<File>& files() const { return files_; }

  // Publishers hold LockPublish() across Collect() and Publish().
  Result<FileLock> LockPublish() const {
    return FileLock::Acquire(spec_.lock_path);
  }
  // The current view plus a sweep of each data file past its covered end.
  Draft Collect() const;
  // Opens data file `name` for appending at its clean end
  // (FramedLog::OpenForAppend with the spec's header and decoder) and
  // registers it in `draft`; *file gets its id.
  Result<FramedLog> OpenForAppend(Draft* draft, std::string_view name,
                                  uint32_t* file) const;
  // Writes `draft` as the next generation and loads it.
  Status Publish(const Draft& draft);

 private:
  bool Parse(std::string_view image);
  std::string Image(const Draft& draft, uint64_t generation) const;
  std::vector<std::string> ListDataFiles() const;  // sorted
  void Sweep(Draft* draft) const;

  Spec spec_;
  bool had_file_ = false;  // identity of the file Load() saw
  uint64_t ino_ = 0, file_size_ = 0;
  int64_t mtime_ns_ = 0;
  void* map_ = nullptr;  // the mapped index file, or null
  size_t map_len_ = 0;
  std::string replayed_;  // the image built from a replay, when unmapped
  const unsigned char* buckets_ = nullptr;
  uint64_t bucket_count_ = 0, entry_count_ = 0, generation_ = 0;
  std::vector<File> files_;
};

// Test-only fault seam. Once armed, every durable operation above is
// recorded, and after `cut_after` of them on paths containing `path_match`
// the power is "cut": the next operation anywhere in the process fails
// with kInternal (a write there lands only its first half), as does every
// later one, and a failed replace leaves its temp file, as a dead process
// would. Disarmed, the seam records and fails nothing.
namespace fault {

enum class Op {
  kCreate, kWrite, kSync, kRename, kSyncDir, kTruncate, kUnlink
};
struct OpRecord {
  Op op;
  std::string path;  // the file served (a replace's target, not its temp)
};
// One AtomicWriteFile of bytes: create, write, sync, move, sync dir.
inline constexpr int kAtomicWriteOps = 5;

void Arm(std::string path_match, int cut_after);  // < 0: record only
void Disarm();  // restores power and clears the log
bool PowerIsCut();
std::vector<OpRecord> Log();

}  // namespace fault

}  // namespace durable
}  // namespace automc

#endif  // AUTOMC_COMMON_DURABLE_H_
