#include "server/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/bytes.h"
#include "common/durable.h"
#include "common/net.h"
#include "common/sha256.h"

namespace automc {
namespace server {

namespace {

// Blocks until `fd` is ready for `events` (POLLIN/POLLOUT); EINTR-safe.
// Lets the byte-level loops below behave blockingly on O_NONBLOCK sockets:
// a nonblocking fd handed to ReadFrame/WriteFrame never tears a frame.
Status PollFor(int fd, short events) {
  pollfd p{fd, events, 0};
  for (;;) {
    if (::poll(&p, 1, -1) >= 0) return Status::OK();
    if (errno == EINTR) continue;
    return Status::Internal(std::string("socket poll: ") +
                            std::strerror(errno));
  }
}

// write(2) until done; EINTR- and EAGAIN-safe. A peer that disappears
// mid-write surfaces as Internal (EPIPE is suppressed to a status, not a
// signal — callers must have SIGPIPE ignored or use MSG_NOSIGNAL-
// equivalent; automc_serve and the CLI both ignore SIGPIPE at startup).
Status WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t written = ::write(fd, p, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        AUTOMC_RETURN_IF_ERROR(PollFor(fd, POLLOUT));
        continue;
      }
      return Status::Internal(std::string("socket write: ") +
                              std::strerror(errno));
    }
    p += written;
    n -= static_cast<size_t>(written);
  }
  return Status::OK();
}

// read(2) a full buffer, looping over short reads, EINTR, and (on
// nonblocking sockets) EAGAIN. `*eof` is set (and OK returned) only when
// EOF hits at offset 0; EOF mid-buffer is a truncated frame.
Status ReadAll(int fd, void* data, size_t n, bool* eof) {
  *eof = false;
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        AUTOMC_RETURN_IF_ERROR(PollFor(fd, POLLIN));
        continue;
      }
      return Status::Internal(std::string("socket read: ") +
                              std::strerror(errno));
    }
    if (r == 0) {
      if (got == 0) {
        *eof = true;
        return Status::OK();
      }
      return Status::InvalidArgument("truncated frame: EOF mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

uint32_t FrameCrc(uint32_t type, uint32_t size, std::string_view payload) {
  uint32_t crc = Crc32(&type, sizeof(type));
  crc = Crc32(&size, sizeof(size), crc);
  return Crc32(payload.data(), payload.size(), crc);
}

}  // namespace

std::string EncodeFrame(MsgType type, std::string_view payload) {
  const uint32_t type_u = static_cast<uint32_t>(type);
  const uint32_t size = static_cast<uint32_t>(payload.size());
  ByteWriter w;
  w.U32(kFrameMagic);
  w.U32(type_u);
  w.U32(size);
  w.Raw(payload.data(), payload.size());
  w.U32(FrameCrc(type_u, size, payload));
  return w.Take();
}

Status WriteFrame(int fd, MsgType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload too large");
  }
  std::string bytes = EncodeFrame(type, payload);
  return WriteAll(fd, bytes.data(), bytes.size());
}

Result<Frame> ReadFrame(int fd) {
  uint32_t header[3];
  bool eof = false;
  AUTOMC_RETURN_IF_ERROR(ReadAll(fd, header, sizeof(header), &eof));
  if (eof) return Status::NotFound("connection closed");
  if (header[0] != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (header[2] > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload too large");
  }
  Frame frame;
  frame.type = header[1];
  frame.payload.resize(header[2]);
  if (!frame.payload.empty()) {
    AUTOMC_RETURN_IF_ERROR(
        ReadAll(fd, frame.payload.data(), frame.payload.size(), &eof));
    if (eof) return Status::InvalidArgument("truncated frame: EOF mid-frame");
  }
  uint32_t crc = 0;
  AUTOMC_RETURN_IF_ERROR(ReadAll(fd, &crc, sizeof(crc), &eof));
  if (eof) return Status::InvalidArgument("truncated frame: EOF mid-frame");
  if (crc != FrameCrc(frame.type, header[2], frame.payload)) {
    return Status::InvalidArgument("frame CRC mismatch");
  }
  return frame;
}

void FrameDecoder::Feed(const char* data, size_t n) {
  if (!error_.ok()) return;  // poisoned: framing is lost, don't buffer more
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Event FrameDecoder::Next(Frame* out, Status* error) {
  if (!error_.ok()) {
    *error = error_;
    return Event::kError;
  }
  const size_t avail = buf_.size() - pos_;
  if (avail < 12) return Event::kNeedMore;
  uint32_t header[3];
  std::memcpy(header, buf_.data() + pos_, sizeof(header));
  if (header[0] != kFrameMagic) {
    error_ = Status::InvalidArgument("bad frame magic");
    *error = error_;
    return Event::kError;
  }
  if (header[2] > kMaxFramePayload) {
    error_ = Status::InvalidArgument(
        "frame payload too large: " + std::to_string(header[2]) +
        " bytes exceeds the " + std::to_string(kMaxFramePayload) +
        "-byte cap");
    *error = error_;
    return Event::kError;
  }
  const size_t total = 12 + static_cast<size_t>(header[2]) + 4;
  if (avail < total) return Event::kNeedMore;
  std::string_view payload(buf_.data() + pos_ + 12, header[2]);
  uint32_t crc = 0;
  std::memcpy(&crc, buf_.data() + pos_ + 12 + header[2], sizeof(crc));
  if (crc != FrameCrc(header[1], header[2], payload)) {
    error_ = Status::InvalidArgument("frame CRC mismatch");
    *error = error_;
    return Event::kError;
  }
  out->type = header[1];
  out->payload.assign(payload);
  pos_ += total;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return Event::kFrame;
}

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "QUEUED";
    case JobState::kRunning:
      return "RUNNING";
    case JobState::kDone:
      return "DONE";
    case JobState::kFailed:
      return "FAILED";
    case JobState::kCancelled:
      return "CANCELLED";
  }
  return "UNKNOWN";
}

bool JobStateIsTerminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

bool ParseJobState(std::string_view name, JobState* state) {
  for (JobState s :
       {JobState::kQueued, JobState::kRunning, JobState::kDone,
        JobState::kFailed, JobState::kCancelled}) {
    if (name == JobStateName(s)) {
      *state = s;
      return true;
    }
  }
  return false;
}

void EncodeJobInfo(const JobInfo& info, ByteWriter* w) {
  w->U64(info.id);
  w->U32(static_cast<uint32_t>(info.state));
  w->Str(info.summary);
  w->Str(info.error);
  w->I32(info.executions);
}

bool DecodeJobInfo(ByteReader* r, JobInfo* info) {
  uint32_t state = 0;
  if (!r->U64(&info->id) || !r->U32(&state) || state > 4 ||
      !r->Str(&info->summary) || !r->Str(&info->error) ||
      !r->I32(&info->executions)) {
    return false;
  }
  info->state = static_cast<JobState>(state);
  return true;
}

std::string EncodeError(const Status& status) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(status.code()));
  w.Str(status.message());
  return w.Take();
}

Status DecodeError(std::string_view payload) {
  ByteReader r(payload);
  uint32_t code = 0;
  std::string message;
  if (!r.U32(&code) || !r.Str(&message) ||
      code > static_cast<uint32_t>(StatusCode::kDataLoss) || code == 0) {
    return Status::Internal("malformed error frame from server");
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

Frame ReplyFrame(MsgType type, std::string payload) {
  Frame f;
  f.type = static_cast<uint32_t>(type);
  f.payload = std::move(payload);
  return f;
}

Frame ErrorFrame(const Status& status) {
  return ReplyFrame(MsgType::kError, EncodeError(status));
}

void EncodeArtifactInfo(const ArtifactInfo& info, ByteWriter* w) {
  w->Str(info.name);
  w->U64(info.total_size);
  w->Raw(info.blob_digest.data(), info.blob_digest.size());
  w->U32(info.chunk_count);
  w->U64(info.job_id);
  w->Str(info.scheme);
  w->Str(info.summary);
  w->F64(info.acc);
  w->I64(info.params);
  w->I64(info.flops);
}

bool DecodeArtifactInfo(ByteReader* r, ArtifactInfo* info) {
  return r->Str(&info->name) && r->U64(&info->total_size) &&
         r->Raw(info->blob_digest.data(), info->blob_digest.size()) &&
         r->U32(&info->chunk_count) && r->U64(&info->job_id) &&
         r->Str(&info->scheme) && r->Str(&info->summary) &&
         r->F64(&info->acc) && r->I64(&info->params) && r->I64(&info->flops);
}

Result<Client> Client::Connect(const std::string& address) {
  AUTOMC_ASSIGN_OR_RETURN(int fd, net::ConnectAddress(address));
  return Client(fd);
}

Client::Client(Client&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Frame> Client::Call(MsgType type, std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  AUTOMC_RETURN_IF_ERROR(WriteFrame(fd_, type, payload));
  AUTOMC_ASSIGN_OR_RETURN(Frame reply, ReadFrame(fd_));
  if (reply.type == static_cast<uint32_t>(MsgType::kError)) {
    return DecodeError(reply.payload);
  }
  return reply;
}

namespace {

Result<Frame> ExpectType(Result<Frame> reply, MsgType want) {
  if (!reply.ok()) return reply;
  if (reply->type != static_cast<uint32_t>(want)) {
    return Status::Internal("unexpected response frame type " +
                            std::to_string(reply->type));
  }
  return reply;
}

}  // namespace

Result<uint64_t> Client::Submit(const core::RunSpec& spec) {
  ByteWriter w;
  core::EncodeRunSpec(spec, &w);
  AUTOMC_ASSIGN_OR_RETURN(
      Frame reply, ExpectType(Call(MsgType::kSubmitJob, w.str()),
                              MsgType::kSubmitted));
  ByteReader r(reply.payload);
  uint64_t id = 0;
  if (!r.U64(&id) || !r.Done()) {
    return Status::Internal("malformed submit response");
  }
  return id;
}

namespace {

std::string IdPayload(uint64_t id) {
  ByteWriter w;
  w.U64(id);
  return w.Take();
}

}  // namespace

Result<JobInfo> Client::JobStatus(uint64_t id) {
  AUTOMC_ASSIGN_OR_RETURN(
      Frame reply,
      ExpectType(Call(MsgType::kJobStatus, IdPayload(id)), MsgType::kStatus));
  ByteReader r(reply.payload);
  JobInfo info;
  if (!DecodeJobInfo(&r, &info) || !r.Done()) {
    return Status::Internal("malformed status response");
  }
  return info;
}

Status Client::Cancel(uint64_t id) {
  return ExpectType(Call(MsgType::kCancelJob, IdPayload(id)), MsgType::kOk)
      .status();
}

namespace {

// Decodes a `u32 count, count * entry` list reply, appending as entries
// decode: the declared count must not size memory.
template <typename T>
Result<std::vector<T>> DecodeList(std::string_view payload,
                                  bool (*decode)(ByteReader*, T*),
                                  const std::string& what) {
  ByteReader r(payload);
  uint32_t count = 0;
  if (!r.U32(&count)) return Status::Internal("malformed " + what);
  std::vector<T> out;
  for (uint32_t i = 0; i < count; ++i) {
    if (!decode(&r, &out.emplace_back())) {
      return Status::Internal("malformed " + what + " entry");
    }
  }
  if (!r.Done()) return Status::Internal("trailing bytes in " + what);
  return out;
}

}  // namespace

Result<std::vector<JobInfo>> DecodeJobList(std::string_view payload) {
  return DecodeList(payload, DecodeJobInfo, "job list");
}

Result<std::vector<JobInfo>> Client::ListJobs() {
  AUTOMC_ASSIGN_OR_RETURN(
      Frame reply, ExpectType(Call(MsgType::kListJobs, {}), MsgType::kJobList));
  return DecodeJobList(reply.payload);
}

Result<std::string> Client::FetchOutcomeBytes(uint64_t id) {
  AUTOMC_ASSIGN_OR_RETURN(
      Frame reply, ExpectType(Call(MsgType::kFetchOutcome, IdPayload(id)),
                              MsgType::kOutcome));
  return std::move(reply.payload);
}

Result<std::string> Client::Metrics() {
  AUTOMC_ASSIGN_OR_RETURN(
      Frame reply,
      ExpectType(Call(MsgType::kGetMetrics, {}), MsgType::kMetrics));
  return std::move(reply.payload);
}

Result<ArtifactInfo> Client::FetchModel(const std::string& name,
                                        const ChunkSink& sink) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  ByteWriter req;
  req.Str(name);
  AUTOMC_RETURN_IF_ERROR(WriteFrame(fd_, MsgType::kFetchModel, req.str()));

  AUTOMC_ASSIGN_OR_RETURN(Frame head, ReadFrame(fd_));
  if (head.type == static_cast<uint32_t>(MsgType::kError)) {
    return DecodeError(head.payload);
  }
  if (head.type != static_cast<uint32_t>(MsgType::kModelStart)) {
    return Status::Internal("expected ModelStart, got frame type " +
                            std::to_string(head.type));
  }
  ByteReader hr(head.payload);
  ArtifactInfo info;
  if (!DecodeArtifactInfo(&hr, &info) || !hr.Done()) {
    return Status::Internal("malformed ModelStart payload");
  }

  Sha256 hasher;
  uint64_t received = 0;
  uint32_t chunks = 0;
  for (;;) {
    AUTOMC_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
    if (frame.type == static_cast<uint32_t>(MsgType::kModelChunk)) {
      ++chunks;
      received += frame.payload.size();
      if (received > info.total_size || chunks > info.chunk_count) {
        return Status::DataLoss("server streamed more model bytes than "
                                "announced for '" + name + "'");
      }
      hasher.Update(frame.payload.data(), frame.payload.size());
      AUTOMC_RETURN_IF_ERROR(sink(frame.payload));
      continue;
    }
    if (frame.type == static_cast<uint32_t>(MsgType::kError)) {
      // Mid-stream failure (e.g. a chunk failed verification server-side):
      // the stream is over and whatever the sink wrote must be discarded.
      return DecodeError(frame.payload);
    }
    if (frame.type != static_cast<uint32_t>(MsgType::kModelEnd)) {
      return Status::Internal("unexpected frame type " +
                              std::to_string(frame.type) +
                              " inside a model stream");
    }
    ByteReader er(frame.payload);
    uint64_t total = 0;
    Sha256Digest end_digest{};
    if (!er.U64(&total) || !er.Raw(end_digest.data(), end_digest.size()) ||
        !er.Done()) {
      return Status::Internal("malformed ModelEnd payload");
    }
    const Sha256Digest got = hasher.Finish();
    if (total != info.total_size || received != total ||
        chunks != info.chunk_count ||
        std::memcmp(end_digest.data(), info.blob_digest.data(), 32) != 0 ||
        got != end_digest) {
      return Status::DataLoss("fetched model '" + name +
                              "' failed end-to-end verification");
    }
    return info;
  }
}

Status WriteStreamToFile(
    const std::string& path,
    const std::function<Status(const Client::ChunkSink&)>& produce) {
  return durable::AtomicWriteFile(path, produce);
}

Result<ArtifactInfo> Client::FetchModelToFile(const std::string& name,
                                              const std::string& path) {
  ArtifactInfo info;
  AUTOMC_RETURN_IF_ERROR(
      WriteStreamToFile(path, [&](const ChunkSink& sink) -> Status {
        AUTOMC_ASSIGN_OR_RETURN(info, FetchModel(name, sink));
        return Status::OK();
      }));
  return info;
}

Status Client::FetchOutcomeToSink(uint64_t id, const ChunkSink& sink) {
  AUTOMC_ASSIGN_OR_RETURN(
      Frame reply, ExpectType(Call(MsgType::kFetchOutcome, IdPayload(id)),
                              MsgType::kOutcome));
  return sink(reply.payload);
}

Status Client::FetchOutcomeToFile(uint64_t id, const std::string& path) {
  return WriteStreamToFile(path, [&](const ChunkSink& sink) {
    return FetchOutcomeToSink(id, sink);
  });
}

Result<std::vector<ArtifactInfo>> Client::ListArtifacts() {
  AUTOMC_ASSIGN_OR_RETURN(
      Frame reply, ExpectType(Call(MsgType::kListArtifacts, {}),
                              MsgType::kArtifactList));
  return DecodeList(reply.payload, DecodeArtifactInfo, "artifact list");
}

}  // namespace server
}  // namespace automc
