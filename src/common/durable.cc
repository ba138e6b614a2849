#include "common/durable.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <mutex>

#include "common/bytes.h"

namespace automc {
namespace durable {

namespace {

constexpr uint32_t kIndexVersion = 2;
constexpr uint32_t kEmptyBucket = 0xFFFFFFFFu;
constexpr uint64_t kMinBuckets = 64;
constexpr size_t kFrameHeader = 8;  // u32 len | u32 crc

template <typename T>
T LoadAs(const void* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// A bucket stores its FrameLoc as-is after the key: u32 file | u32 size |
// u64 offset.
static_assert(sizeof(FrameLoc) == 16 && offsetof(FrameLoc, offset) == 8);

Status Failed(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

// ---- fault seam: every durable operation passes Enter() first ----

struct Seam {
  std::atomic<bool> armed{false};
  std::mutex mu;  // guards the fields below
  std::string match;
  int64_t cut_after = -1, matched = 0;
  bool cut = false;
  std::vector<fault::OpRecord> log;
};

Seam& TheSeam() {
  static Seam* seam = new Seam();
  return *seam;
}

enum class Gate { kProceed, kTear, kDead };

Gate Enter(fault::Op op, const std::string& path) {
  Seam& s = TheSeam();
  if (!s.armed.load(std::memory_order_acquire)) return Gate::kProceed;
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.cut) return Gate::kDead;
  if (s.cut_after >= 0 && s.matched >= s.cut_after) {
    s.cut = true;
    return Gate::kTear;
  }
  s.log.push_back({op, path});
  if (path.find(s.match) != std::string::npos) ++s.matched;
  return Gate::kProceed;
}

Status PowerCut(const std::string& path) {
  return Status::Internal("power cut (fault injection) at " + path);
}

Status Gated(fault::Op op, const std::string& path) {
  return Enter(op, path) == Gate::kProceed ? Status::OK() : PowerCut(path);
}

bool WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

// `path` is the file the write serves (for a temp file, its target).
Status GatedWrite(int fd, std::string_view bytes, const std::string& path) {
  const Gate gate = Enter(fault::Op::kWrite, path);
  if (gate == Gate::kTear) WriteAll(fd, bytes.data(), bytes.size() / 2);
  if (gate != Gate::kProceed) return PowerCut(path);
  if (!WriteAll(fd, bytes.data(), bytes.size())) {
    return Failed("short write on " + path);
  }
  return Status::OK();
}

Status SyncFd(int fd, const std::string& path) {
  AUTOMC_RETURN_IF_ERROR(Gated(fault::Op::kSync, path));
  return ::fsync(fd) == 0 ? Status::OK() : Failed("fsync " + path);
}

// Makes the directory entry of `path` (a create or replace) durable.
Status SyncDirOf(const std::string& path) {
  AUTOMC_RETURN_IF_ERROR(Gated(fault::Op::kSyncDir, path));
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0               ? "/"
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Failed("cannot open directory " + dir);
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok ? Status::OK() : Failed("fsync " + dir);
}

// Exactly `n` bytes at `offset`; false on a short read.
bool PreadAll(int fd, uint64_t offset, size_t n, std::string* out) {
  out->resize(n);
  for (size_t done = 0; done < n;) {
    const ssize_t got = ::pread(fd, out->data() + done, n - done,
                                static_cast<off_t>(offset + done));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    done += static_cast<size_t>(got);
  }
  return true;
}

std::atomic<uint64_t> g_temp_serial{0};

}  // namespace

Result<std::string> ReadFile(const std::string& path, size_t max_bytes) {
  // A FramedLog opened for reading is a plain positional reader.
  AUTOMC_ASSIGN_OR_RETURN(FramedLog file, FramedLog::OpenRead(path));
  const uint64_t size = file.Size();
  if (size > max_bytes) {
    return Status::DataLoss(path + " is larger than " +
                            std::to_string(max_bytes) + " bytes");
  }
  std::string out;
  if (!file.ReadAt(0, size, &out)) return Failed("read failure on " + path);
  return out;
}

Status AtomicWriteFile(const std::string& path,
                       const std::function<Status(const ByteSink&)>& produce) {
  AUTOMC_RETURN_IF_ERROR(Gated(fault::Op::kCreate, path));
  std::string tmp;
  int fd = -1;
  for (int attempt = 0; fd < 0; ++attempt) {
    // O_EXCL skips a stale name a dead process with the same pid left.
    tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
          std::to_string(g_temp_serial.fetch_add(1));
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd < 0 && (errno != EEXIST || attempt >= 16)) {
      return Failed("cannot create " + tmp);
    }
  }
  Status st = produce([fd, &path](std::string_view bytes) {
    return GatedWrite(fd, bytes, path);
  });
  if (st.ok()) st = SyncFd(fd, path);
  if (::close(fd) != 0 && st.ok()) st = Failed("close " + tmp);
  if (st.ok()) st = Gated(fault::Op::kRename, path);
  if (st.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    st = Failed("cannot move " + tmp + " into place");
  }
  if (!st.ok()) {
    if (!fault::PowerIsCut()) ::unlink(tmp.c_str());
    return st;
  }
  return SyncDirOf(path);
}

Status AtomicWriteFile(const std::string& path, std::string_view bytes) {
  return AtomicWriteFile(
      path, [bytes](const ByteSink& sink) { return sink(bytes); });
}

Status WriteSealedFile(const std::string& path, std::string_view header,
                       std::string_view body) {
  ByteWriter w;
  w.Raw(header.data(), header.size());
  w.U32(Crc32(body));
  w.Raw(body.data(), body.size());
  return AtomicWriteFile(path, w.str());
}

Result<std::string> ReadSealedFile(const std::string& path,
                                   std::string_view header, size_t max_bytes) {
  AUTOMC_ASSIGN_OR_RETURN(std::string data, ReadFile(path, max_bytes));
  const size_t body = header.size() + 4;
  if (data.size() < body || data.compare(0, header.size(), header) != 0) {
    return Status::DataLoss(path + " has a bad header");
  }
  const uint32_t crc = LoadAs<uint32_t>(data.data() + header.size());
  data.erase(0, body);
  if (Crc32(data) != crc) {
    return Status::DataLoss(path + " failed CRC validation");
  }
  return data;
}

Result<FileLock> FileLock::Acquire(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
  if (fd < 0) return Failed("cannot open lock " + path);
  while (::flock(fd, LOCK_EX) != 0) {
    if (errno == EINTR) continue;
    Status st = Failed("cannot lock " + path);
    ::close(fd);
    return st;
  }
  return FileLock(fd);
}

FileLock::~FileLock() {
  if (fd_ >= 0) ::close(fd_);  // releases the lock
}

Result<FramedLog> FramedLog::OpenRead(const std::string& path) {
  FramedLog log;
  log.path_ = path;
  log.fd_ = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (log.fd_ >= 0) return log;
  if (errno == ENOENT) return Status::NotFound("no file " + path);
  return Failed("cannot open " + path);
}

Result<FramedLog> FramedLog::OpenForAppend(const std::string& path,
                                           std::string_view header,
                                           uint64_t from,
                                           uint32_t max_payload,
                                           const FrameFn& fn,
                                           uint64_t* dropped) {
  FramedLog log;
  log.path_ = path;
  constexpr int kFlags = O_RDWR | O_APPEND | O_CLOEXEC;
  log.fd_ = ::open(path.c_str(), kFlags);
  if (log.fd_ < 0 && errno == ENOENT) {
    AUTOMC_RETURN_IF_ERROR(Gated(fault::Op::kCreate, path));
    log.fd_ = ::open(path.c_str(), kFlags | O_CREAT | O_EXCL, 0666);
    log.dir_pending_ = log.fd_ >= 0;
    if (log.fd_ < 0 && errno == EEXIST) log.fd_ = ::open(path.c_str(), kFlags);
  }
  if (log.fd_ < 0) return Failed("cannot open " + path);

  const uint64_t size = log.Size();
  uint64_t end = 0;
  if (size >= header.size()) {
    std::string head;
    if (!log.ReadAt(0, header.size(), &head) || head != header) {
      return Status::InvalidArgument(path + " has a foreign header");
    }
    end = log.Scan(std::max<uint64_t>(from, header.size()), max_payload, fn);
  }
  if (dropped != nullptr) *dropped = size - end;
  if (end < size) {
    AUTOMC_RETURN_IF_ERROR(Gated(fault::Op::kTruncate, path));
    if (::ftruncate(log.fd_, static_cast<off_t>(end)) != 0) {
      return Failed("cannot truncate " + path);
    }
  }
  if (end == 0 && !header.empty()) {
    AUTOMC_RETURN_IF_ERROR(GatedWrite(log.fd_, header, path));
  }
  return log;
}

FramedLog::~FramedLog() {
  if (fd_ >= 0) ::close(fd_);
}

uint64_t FramedLog::Size() const {
  struct stat st{};
  if (fd_ < 0 || ::fstat(fd_, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

bool FramedLog::ReadAt(uint64_t offset, size_t n, std::string* out) const {
  return PreadAll(fd_, offset, n, out);
}

Result<std::string> FramedLog::ReadFrame(uint64_t offset,
                                         uint32_t len) const {
  uint32_t header[2] = {0, 0};
  std::string payload(len, '\0');
  struct iovec iov[2] = {{header, sizeof(header)}, {payload.data(), len}};
  ssize_t got;
  do {
    got = ::preadv(fd_, iov, 2, static_cast<off_t>(offset));
  } while (got < 0 && errno == EINTR);
  const std::string where =
      " frame at offset " + std::to_string(offset) + " of " + path_;
  if (got != static_cast<ssize_t>(sizeof(header) + len)) {
    return Status::DataLoss("truncated" + where);
  }
  if (header[0] != len || Crc32(payload) != header[1]) {
    return Status::DataLoss("CRC mismatch in" + where);
  }
  return payload;
}

uint64_t FramedLog::Scan(uint64_t from, uint32_t max_payload,
                         const FrameFn& fn) const {
  const uint64_t size = Size();
  uint64_t pos = std::min(from, size);
  std::string header, payload;
  while (pos + kFrameHeader <= size && ReadAt(pos, kFrameHeader, &header)) {
    const uint32_t len = LoadAs<uint32_t>(header.data());
    if (len > max_payload || pos + kFrameHeader + len > size ||
        !ReadAt(pos + kFrameHeader, len, &payload) ||
        Crc32(payload) != LoadAs<uint32_t>(header.data() + 4) ||
        !fn(pos, payload)) {
      break;
    }
    pos += kFrameHeader + len;
  }
  return pos;
}

Status FramedLog::Append(std::string_view payload) {
  ByteWriter frame;
  frame.U32(static_cast<uint32_t>(payload.size()));
  frame.U32(Crc32(payload));
  frame.Raw(payload.data(), payload.size());
  return GatedWrite(fd_, frame.str(), path_);
}

Status FramedLog::Sync() {
  AUTOMC_RETURN_IF_ERROR(SyncFd(fd_, path_));
  if (dir_pending_) {
    AUTOMC_RETURN_IF_ERROR(SyncDirOf(path_));
    dir_pending_ = false;
  }
  return Status::OK();
}

uint32_t MmapHashIndex::Draft::FileId(std::string_view name) {
  for (size_t i = 0; i < files.size(); ++i) {
    if (files[i].name == name) return static_cast<uint32_t>(i);
  }
  files.push_back({std::string(name), 0});
  return static_cast<uint32_t>(files.size() - 1);
}

MmapHashIndex::~MmapHashIndex() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

MmapHashIndex::LoadState MmapHashIndex::Load() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
  map_ = nullptr;
  replayed_ = std::string();
  had_file_ = false;
  const int fd = ::open(spec_.index_path.c_str(), O_RDONLY | O_CLOEXEC);
  struct stat st{};
  if (fd >= 0 && ::fstat(fd, &st) == 0) {
    had_file_ = true;
    ino_ = static_cast<uint64_t>(st.st_ino);
    file_size_ = static_cast<uint64_t>(st.st_size);
    mtime_ns_ = st.st_mtim.tv_sec * 1000000000ll + st.st_mtim.tv_nsec;
    void* map = ::mmap(nullptr, file_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (file_size_ > 0 && map != MAP_FAILED) {
      map_ = map;
      map_len_ = file_size_;
    }
  }
  if (fd >= 0) ::close(fd);
  if (map_ != nullptr &&
      Parse(std::string_view(static_cast<const char*>(map_), map_len_))) {
    return LoadState::kMapped;
  }
  if (map_ != nullptr) ::munmap(map_, map_len_);
  map_ = nullptr;
  // The data files are the source of truth: index a replay of them in
  // memory, in the same image format.
  Draft replay;
  Sweep(&replay);
  replayed_ = Image(replay, 0);
  Parse(replayed_);
  return had_file_ ? LoadState::kUnusable : LoadState::kAbsent;
}

bool MmapHashIndex::Parse(std::string_view data) {
  // The CRC tail covers the whole image: a reader sees the old file or the
  // new one (the replace is atomic), and bit rot is caught here.
  if (data.size() < 4 + 32) return false;
  const std::string_view image = data.substr(0, data.size() - 4);
  ByteReader r(image);
  uint32_t magic = 0, version = 0, key_bytes = 0, file_count = 0;
  uint64_t generation = 0, entries = 0, buckets = 0;
  std::vector<File> files;
  bool ok = Crc32(image) == LoadAs<uint32_t>(data.data() + image.size()) &&
            r.U32(&magic) &&
            r.U32(&version) && r.U64(&generation) && r.U32(&key_bytes) &&
            r.U32(&file_count) && magic == spec_.magic &&
            version == kIndexVersion && key_bytes == spec_.key_bytes;
  for (uint32_t i = 0; ok && i < file_count; ++i) {
    files.emplace_back();
    ok = r.Str(&files.back().name) && r.U64(&files.back().covered) &&
         spec_.is_data_file(files.back().name);
  }
  const size_t bucket_bytes = spec_.key_bytes + 16;
  ok = ok && r.U64(&entries) && r.U64(&buckets) && buckets > 0 &&
       (buckets & (buckets - 1)) == 0 && entries < buckets &&
       r.remaining() % bucket_bytes == 0 &&
       buckets == r.remaining() / bucket_bytes;
  if (!ok) return false;
  buckets_ = reinterpret_cast<const unsigned char*>(image.data()) +
             (image.size() - r.remaining());
  bucket_count_ = buckets;
  entry_count_ = entries;
  generation_ = generation;
  files_ = std::move(files);
  return true;
}

std::string MmapHashIndex::Image(const Draft& draft,
                                 uint64_t generation) const {
  uint64_t buckets = kMinBuckets;
  while (buckets < draft.entries.size() * 2) buckets *= 2;
  const size_t bucket_bytes = spec_.key_bytes + 16;
  std::string table(buckets * bucket_bytes, '\0');
  auto* base = reinterpret_cast<unsigned char*>(table.data());
  for (uint64_t b = 0; b < buckets; ++b) {
    std::memcpy(base + b * bucket_bytes + spec_.key_bytes, &kEmptyBucket, 4);
  }
  for (const auto& [key, loc] : draft.entries) {
    uint64_t b = LoadAs<uint64_t>(key.data()) & (buckets - 1);
    while (LoadAs<uint32_t>(base + b * bucket_bytes + spec_.key_bytes) !=
           kEmptyBucket) {
      b = (b + 1) & (buckets - 1);
    }
    unsigned char* slot = base + b * bucket_bytes;
    std::memcpy(slot, key.data(), spec_.key_bytes);
    std::memcpy(slot + spec_.key_bytes, &loc, sizeof(loc));
  }
  ByteWriter w;
  w.U32(spec_.magic);
  w.U32(kIndexVersion);
  w.U64(generation);
  w.U32(spec_.key_bytes);
  w.U32(static_cast<uint32_t>(draft.files.size()));
  for (const File& f : draft.files) {
    w.Str(f.name);
    w.U64(f.covered);
  }
  w.U64(draft.entries.size());
  w.U64(buckets);
  w.Raw(table.data(), table.size());
  w.U32(Crc32(w.str()));
  return w.Take();
}

bool MmapHashIndex::Stale() const {
  struct stat st{};
  if (::stat(spec_.index_path.c_str(), &st) != 0) return had_file_;
  return !had_file_ || static_cast<uint64_t>(st.st_ino) != ino_ ||
         static_cast<uint64_t>(st.st_size) != file_size_ ||
         st.st_mtim.tv_sec * 1000000000ll + st.st_mtim.tv_nsec != mtime_ns_;
}

bool MmapHashIndex::Find(std::string_view key, FrameLoc* loc) const {
  if (key.size() != spec_.key_bytes) return false;
  const size_t bucket_bytes = spec_.key_bytes + 16;
  const uint64_t mask = bucket_count_ - 1;
  const uint64_t start = LoadAs<uint64_t>(key.data());
  // <= 50% load guarantees an empty bucket ends a miss; the step bound
  // stops a pathological image.
  for (uint64_t step = 0; step < bucket_count_; ++step) {
    const unsigned char* slot =
        buckets_ + ((start + step) & mask) * bucket_bytes;
    const auto found = LoadAs<FrameLoc>(slot + key.size());
    if (found.file == kEmptyBucket) return false;
    if (std::memcmp(slot, key.data(), key.size()) != 0) continue;
    if (found.file >= files_.size()) return false;
    *loc = found;
    return true;
  }
  return false;
}

Result<std::string> MmapHashIndex::ReadFrame(const FrameLoc& loc,
                                             const Draft* draft) const {
  const std::vector<File>& files = draft != nullptr ? draft->files : files_;
  if (loc.file >= files.size() || loc.size > spec_.max_payload) {
    return Status::DataLoss("implausible frame location in " +
                            spec_.index_path);
  }
  const std::string path = spec_.data_dir + "/" + files[loc.file].name;
  Result<FramedLog> log = FramedLog::OpenRead(path);
  if (!log.ok()) return Status::DataLoss("data file missing: " + path);
  return log->ReadFrame(loc.offset, loc.size);
}

std::vector<std::string> MmapHashIndex::ListDataFiles() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(spec_.data_dir, ec)) {
    std::string name = entry.path().filename().string();
    if (entry.is_regular_file(ec) && spec_.is_data_file(name)) {
      names.push_back(std::move(name));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

void MmapHashIndex::Sweep(Draft* draft) const {
  for (const std::string& name : ListDataFiles()) draft->FileId(name);
  const std::string& header = spec_.file_header;
  for (uint32_t i = 0; i < draft->files.size(); ++i) {
    File& file = draft->files[i];
    Result<FramedLog> log =
        FramedLog::OpenRead(spec_.data_dir + "/" + file.name);
    if (!log.ok()) continue;  // deleted since it was indexed: lookups miss
    uint64_t from = file.covered;
    if (from < header.size()) {
      std::string head;
      if (!log->ReadAt(0, header.size(), &head) || head != header) continue;
      from = header.size();
    }
    file.covered = log->Scan(
        from, spec_.max_payload, [&](uint64_t offset, std::string_view data) {
          std::string key;
          if (!spec_.key_of(data, &key)) return false;
          draft->Add(std::move(key),
                     FrameLoc{i, static_cast<uint32_t>(data.size()), offset});
          return true;
        });
  }
}

MmapHashIndex::Draft MmapHashIndex::Collect() const {
  Draft draft;
  draft.files = files_;
  const size_t bucket_bytes = spec_.key_bytes + 16;
  for (uint64_t b = 0; b < bucket_count_; ++b) {
    const unsigned char* slot = buckets_ + b * bucket_bytes;
    const auto loc = LoadAs<FrameLoc>(slot + spec_.key_bytes);
    if (loc.file == kEmptyBucket || loc.file >= files_.size()) continue;
    draft.Add(std::string(reinterpret_cast<const char*>(slot),
                          spec_.key_bytes),
              loc);
  }
  Sweep(&draft);
  return draft;
}

Result<FramedLog> MmapHashIndex::OpenForAppend(Draft* draft,
                                               std::string_view name,
                                               uint32_t* file) const {
  *file = draft->FileId(name);
  return FramedLog::OpenForAppend(
      spec_.data_dir + "/" + std::string(name), spec_.file_header,
      draft->files[*file].covered, spec_.max_payload,
      [this](uint64_t, std::string_view payload) {
        std::string key;
        return spec_.key_of(payload, &key);
      });
}

Status MmapHashIndex::Publish(const Draft& draft) {
  for (const auto& [key, loc] : draft.entries) {
    if (key.size() != spec_.key_bytes) {
      return Status::Internal("mis-sized key for " + spec_.index_path);
    }
  }
  AUTOMC_RETURN_IF_ERROR(
      AtomicWriteFile(spec_.index_path, Image(draft, generation_ + 1)));
  if (Load() != LoadState::kMapped) {
    return Status::Internal("freshly published " + spec_.index_path +
                            " failed to map");
  }
  return Status::OK();
}

namespace fault {

void Arm(std::string path_match, int cut_after) {
  Seam& s = TheSeam();
  std::lock_guard<std::mutex> lock(s.mu);
  s.match = std::move(path_match);
  s.cut_after = cut_after;
  s.matched = 0;
  s.cut = false;
  s.log.clear();
  s.armed.store(true, std::memory_order_release);
}

void Disarm() {
  Arm("", -1);
  TheSeam().armed.store(false, std::memory_order_release);
}

bool PowerIsCut() {
  Seam& s = TheSeam();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.armed.load(std::memory_order_acquire) && s.cut;
}

std::vector<OpRecord> Log() {
  Seam& s = TheSeam();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.log;
}

}  // namespace fault

}  // namespace durable
}  // namespace automc
