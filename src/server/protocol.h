#ifndef AUTOMC_SERVER_PROTOCOL_H_
#define AUTOMC_SERVER_PROTOCOL_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/run_spec.h"
#include "search/searcher.h"

namespace automc {
namespace server {

// Length-prefixed, CRC32-framed binary wire protocol of automc_serve
// (docs/server.md has the byte-level layout). Every frame is
//
//   u32 magic "AMCS"  |  u32 type  |  u32 payload_size  |  payload bytes
//   |  u32 crc32(type || payload_size || payload)
//
// little-endian throughout (the ByteWriter/ByteReader encoding the
// persistence layer already uses). The CRC turns a torn or corrupted frame
// into a clean protocol error instead of a misparsed request, and the
// explicit size bound rejects garbage before any allocation.

constexpr uint32_t kFrameMagic = 0x53434D41;  // "AMCS" read little-endian
constexpr uint32_t kMaxFramePayload = 64u << 20;

enum class MsgType : uint32_t {
  // Requests.
  kSubmitJob = 1,     // payload: EncodeRunSpec
  kJobStatus = 2,     // payload: u64 job id
  kCancelJob = 3,     // payload: u64 job id
  kListJobs = 4,      // payload: empty
  kFetchOutcome = 5,  // payload: u64 job id
  kGetMetrics = 6,    // payload: empty, or u32 worker id (fleet mode: that
                      // worker process's registry instead of the frontend's)
  // Internal coordinator -> worker control channel: submit under a
  // coordinator-assigned global job id. Payload: u64 id, EncodeRunSpec.
  // Idempotent — resending after a worker respawn re-acknowledges the same
  // id as long as the spec bytes match.
  kSubmitWithId = 7,
  // Artifact registry (docs/artifacts.md). FetchModel is the one
  // multi-frame reply in the protocol: kModelStart, then one kModelChunk
  // per stored chunk, then kModelEnd — so a model of any size streams
  // through the transport's write watermarks instead of materializing as
  // one giant frame.
  kFetchModel = 8,     // payload: str artifact name
  kListArtifacts = 9,  // payload: empty
  // Responses.
  kOk = 100,        // payload: empty (CancelJob ack)
  kSubmitted = 101, // payload: u64 job id
  kStatus = 102,    // payload: EncodeJobInfo
  kJobList = 103,   // payload: u32 count, count * EncodeJobInfo
  kOutcome = 104,   // payload: search::SaveOutcomeBytes
  kMetrics = 105,   // payload: metrics JSON (UTF-8 text)
  kModelStart = 106,   // payload: EncodeArtifactInfo
  kModelChunk = 107,   // payload: raw chunk bytes
  kModelEnd = 108,     // payload: u64 total size, 32-byte SHA-256 of blob
  kArtifactList = 109, // payload: u32 count, count * EncodeArtifactInfo
  kError = 200,     // payload: u32 StatusCode, str message
};

struct Frame {
  uint32_t type = 0;
  std::string payload;
};

// Blocking full-frame I/O on a connected socket. ReadFrame distinguishes
//   * NotFound         — clean EOF at a frame boundary (peer closed);
//   * InvalidArgument  — garbage: bad magic, oversized payload, CRC
//                        mismatch, or EOF mid-frame;
//   * Internal         — transport error (errno-level read/write failure).
// Both tolerate short reads/writes and EINTR, and — via poll(2) on
// EAGAIN/EWOULDBLOCK — behave blockingly even on an O_NONBLOCK socket, so
// a frame is never torn by nonblocking-mode reads.
Status WriteFrame(int fd, MsgType type, std::string_view payload);
Result<Frame> ReadFrame(int fd);

// The exact bytes WriteFrame puts on the wire, for transports that manage
// their own buffering (the epoll event loop). Caller enforces the payload
// cap.
std::string EncodeFrame(MsgType type, std::string_view payload);

// Incremental frame parser for nonblocking transports (the epoll event
// loop). Feed() appends whatever bytes arrived; Next() pops completed
// frames. A protocol violation (bad magic, payload over kMaxFramePayload,
// CRC mismatch) poisons the decoder: Next() returns kError with the
// violation, permanently — the connection has lost framing and must close.
class FrameDecoder {
 public:
  enum class Event {
    kNeedMore,  // no complete frame buffered
    kFrame,     // *out was filled
    kError,     // *error was filled; the decoder is dead
  };

  void Feed(const char* data, size_t n);
  Event Next(Frame* out, Status* error);

  // True while a frame is partially buffered (EOF here = torn frame).
  bool mid_frame() const { return error_.ok() && pos_ < buf_.size(); }

 private:
  std::string buf_;
  size_t pos_ = 0;  // parse cursor; consumed prefix is compacted lazily
  Status error_;
};

// Durable job lifecycle: QUEUED -> RUNNING -> {DONE, FAILED, CANCELLED}.
// A killed server re-queues QUEUED/RUNNING jobs on restart (RUNNING ones
// resume from their last checkpoint), so the two non-terminal states are
// exactly the ones recovery re-enters.
enum class JobState : uint32_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kFailed = 3,
  kCancelled = 4,
};

const char* JobStateName(JobState state);
bool JobStateIsTerminal(JobState state);
// Inverse of JobStateName; false on unknown names.
bool ParseJobState(std::string_view name, JobState* state);

// One job's externally visible status.
struct JobInfo {
  uint64_t id = 0;
  JobState state = JobState::kQueued;
  std::string summary;     // RunSpecSummary(spec)
  std::string error;       // FAILED: the search's status message
  int32_t executions = -1; // outcome.executions once DONE, else -1
};

void EncodeJobInfo(const JobInfo& info, ByteWriter* w);
bool DecodeJobInfo(ByteReader* r, JobInfo* info);
// A kJobList payload, decoded entry by entry (the declared count never
// sizes memory); a short entry or trailing bytes are kInternal.
Result<std::vector<JobInfo>> DecodeJobList(std::string_view payload);

// Error-frame payload <-> Status.
std::string EncodeError(const Status& status);
Status DecodeError(std::string_view payload);

// The reply frames request handlers answer with.
Frame ReplyFrame(MsgType type, std::string payload);
Frame ErrorFrame(const Status& status);  // kError carrying `status`

// One published model artifact as seen on the wire (a Manifest minus the
// chunk digests, which are a storage detail the client never needs).
struct ArtifactInfo {
  std::string name;
  uint64_t total_size = 0;
  std::array<uint8_t, 32> blob_digest{};
  uint32_t chunk_count = 0;
  uint64_t job_id = 0;
  std::string scheme;   // core::ParseSchemeIndices format
  std::string summary;
  double acc = 0.0;
  int64_t params = 0;
  int64_t flops = 0;
};

void EncodeArtifactInfo(const ArtifactInfo& info, ByteWriter* w);
bool DecodeArtifactInfo(ByteReader* r, ArtifactInfo* info);

// Blocking client for the automc_serve socket, used by the automc_cli
// --serve-* subcommands, the tests, and the throughput bench. One request
// in flight at a time per client; not thread-safe.
class Client {
 public:
  // `address` is a unix socket path, or "tcp:HOST:PORT" for the daemon's
  // TCP listener (see common/net.h for the address convention).
  static Result<Client> Connect(const std::string& address);
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  Result<uint64_t> Submit(const core::RunSpec& spec);
  Result<JobInfo> JobStatus(uint64_t id);
  Status Cancel(uint64_t id);
  Result<std::vector<JobInfo>> ListJobs();
  // The raw SaveOutcomeBytes payload — callers needing the struct decode it
  // with search::LoadOutcomeBytes; identity tests compare the bytes.
  Result<std::string> FetchOutcomeBytes(uint64_t id);
  Result<std::string> Metrics();

  // Streams a published model: `sink` is called once per chunk, in order.
  // The assembled bytes are verified against the announced size and SHA-256
  // before success is returned; any mismatch (or a server-side kError mid
  // stream) surfaces as a typed error and the sink's output must be
  // discarded. Returns the artifact's wire metadata.
  using ChunkSink = std::function<Status(std::string_view chunk)>;
  Result<ArtifactInfo> FetchModel(const std::string& name,
                                  const ChunkSink& sink);
  // FetchModel into a file (written atomically, see WriteStreamToFile).
  Result<ArtifactInfo> FetchModelToFile(const std::string& name,
                                        const std::string& path);
  Result<std::vector<ArtifactInfo>> ListArtifacts();

  // Streams a job's raw outcome payload (SaveOutcomeBytes format) through
  // `sink` instead of materializing an extra copy; same sink contract as
  // FetchModel, so --serve-result and --serve-fetch-model share one
  // write-to-file path.
  Status FetchOutcomeToSink(uint64_t id, const ChunkSink& sink);
  // FetchOutcomeToSink into a file (atomically, see WriteStreamToFile).
  Status FetchOutcomeToFile(uint64_t id, const std::string& path);

  // One raw round-trip (tests use this to probe protocol edges).
  Result<Frame> Call(MsgType type, std::string_view payload);

 private:
  explicit Client(int fd) : fd_(fd) {}
  int fd_ = -1;
};

// The atomic file sink behind every streaming *ToFile fetch
// (durable::AtomicWriteFile): hands `produce` a ChunkSink writing to a temp
// file unique to this call, and replaces `path` only on a fully verified
// stream; any failure removes the temp file so a torn download never looks
// like a model, and concurrent fetches to one path never mix their bytes.
// Exposed so callers composing their own fetches (tests, tools) reuse it.
Status WriteStreamToFile(
    const std::string& path,
    const std::function<Status(const Client::ChunkSink&)>& produce);

}  // namespace server
}  // namespace automc

#endif  // AUTOMC_SERVER_PROTOCOL_H_
