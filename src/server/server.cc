#include "server/server.h"

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/net.h"
#include "server/artifact_stream.h"

namespace automc {
namespace server {

namespace {

Result<uint64_t> DecodeIdPayload(std::string_view payload) {
  ByteReader r(payload);
  uint64_t id = 0;
  if (!r.U64(&id) || !r.Done()) {
    return Status::InvalidArgument("malformed job-id payload");
  }
  return id;
}

// Test-only fault injection for the ci.sh SLO gate: stall the dispatch
// thread this many milliseconds per request, inflating every op's tail
// latency the way an overloaded (or wedged) event loop would. Read once.
int FaultDelayMs() {
  static const int delay = [] {
    const char* env = std::getenv("AUTOMC_SERVER_FAULT_DELAY_MS");
    if (env == nullptr || *env == '\0') return 0;
    const int v = std::atoi(env);
    return v > 0 ? v : 0;
  }();
  return delay;
}

}  // namespace

Frame JobRequestHandler::Handle(uint64_t client, const Frame& request) {
  if (const int delay = FaultDelayMs(); delay > 0) {
    ::usleep(static_cast<useconds_t>(delay) * 1000);
  }
  switch (static_cast<MsgType>(request.type)) {
    case MsgType::kSubmitJob: {
      core::RunSpec spec;
      ByteReader r(request.payload);
      if (!core::DecodeRunSpec(&r, &spec) || !r.Done()) {
        return ErrorFrame(Status::InvalidArgument("malformed RunSpec payload"));
      }
      Result<uint64_t> id = jobs_->Submit(spec, client);
      if (!id.ok()) return ErrorFrame(id.status());
      ByteWriter w;
      w.U64(*id);
      return ReplyFrame(MsgType::kSubmitted, w.Take());
    }
    case MsgType::kSubmitWithId: {
      ByteReader r(request.payload);
      uint64_t id = 0;
      core::RunSpec spec;
      if (!r.U64(&id) || !core::DecodeRunSpec(&r, &spec) || !r.Done()) {
        return ErrorFrame(
            Status::InvalidArgument("malformed SubmitWithId payload"));
      }
      Result<uint64_t> got = jobs_->SubmitWithId(id, spec);
      if (!got.ok()) return ErrorFrame(got.status());
      ByteWriter w;
      w.U64(*got);
      return ReplyFrame(MsgType::kSubmitted, w.Take());
    }
    case MsgType::kJobStatus: {
      Result<uint64_t> id = DecodeIdPayload(request.payload);
      if (!id.ok()) return ErrorFrame(id.status());
      Result<JobInfo> info = jobs_->Info(*id);
      if (!info.ok()) return ErrorFrame(info.status());
      ByteWriter w;
      EncodeJobInfo(*info, &w);
      return ReplyFrame(MsgType::kStatus, w.Take());
    }
    case MsgType::kCancelJob: {
      Result<uint64_t> id = DecodeIdPayload(request.payload);
      Status st = id.ok() ? jobs_->Cancel(*id) : id.status();
      if (!st.ok()) return ErrorFrame(st);
      return ReplyFrame(MsgType::kOk, "");
    }
    case MsgType::kListJobs: {
      std::vector<JobInfo> infos = jobs_->List();
      ByteWriter w;
      w.U32(static_cast<uint32_t>(infos.size()));
      for (const JobInfo& info : infos) EncodeJobInfo(info, &w);
      return ReplyFrame(MsgType::kJobList, w.Take());
    }
    case MsgType::kFetchOutcome: {
      Result<uint64_t> id = DecodeIdPayload(request.payload);
      if (!id.ok()) return ErrorFrame(id.status());
      Result<std::string> bytes = jobs_->OutcomeBytes(*id);
      if (!bytes.ok()) return ErrorFrame(bytes.status());
      return ReplyFrame(MsgType::kOutcome, *std::move(bytes));
    }
    case MsgType::kGetMetrics: {
      if (!request.payload.empty()) {
        // A u32 worker id only means something to the fleet coordinator.
        return ErrorFrame(Status::FailedPrecondition(
            "per-worker metrics need a fleet coordinator"));
      }
      return ReplyFrame(MsgType::kMetrics,
                        metrics::MetricsRegistry::Global().ToJson());
    }
    case MsgType::kListArtifacts:
      return ArtifactListReply(jobs_->registry());
    default:
      return ErrorFrame(Status::InvalidArgument(
          "unknown request type " + std::to_string(request.type)));
  }
}

std::unique_ptr<fleet::ReplyStream> JobRequestHandler::HandleStream(
    uint64_t client, const Frame& request) {
  (void)client;
  if (static_cast<MsgType>(request.type) != MsgType::kFetchModel) {
    return nullptr;
  }
  return MakeModelStream(jobs_->registry(), request.payload);
}

Result<std::unique_ptr<Server>> Server::Start(Options options) {
  std::string path = options.socket_path;
  if (path.empty()) {
    const char* env = std::getenv("AUTOMC_SOCKET");
    if (env != nullptr) path = env;
  }
  if (path.empty()) {
    return Status::InvalidArgument(
        "bad socket path '' (set --socket or $AUTOMC_SOCKET)");
  }
  std::string tcp = options.tcp_address;
  if (tcp.empty()) {
    const char* env = std::getenv("AUTOMC_TCP");
    if (env != nullptr) tcp = env;
  }
  int idle_s = options.idle_timeout_s;
  if (idle_s < 0) {
    idle_s = 0;
    if (const char* env = std::getenv("AUTOMC_SERVER_IDLE_TIMEOUT");
        env != nullptr && *env != '\0') {
      idle_s = std::atoi(env);
      if (idle_s < 0) idle_s = 0;
    }
  }

  std::unique_ptr<Server> server(new Server());
  server->socket_path_ = path;
  fleet::RequestHandler* handler = options.handler;
  if (handler == nullptr) {
    AUTOMC_ASSIGN_OR_RETURN(server->jobs_,
                            JobManager::Open(std::move(options.jobs)));
    server->default_handler_ =
        std::make_unique<JobRequestHandler>(server->jobs_.get());
    handler = server->default_handler_.get();
  }

  fleet::EventLoop::Options loop_opts;
  loop_opts.handler = handler;
  loop_opts.idle_timeout_s = idle_s;
  AUTOMC_ASSIGN_OR_RETURN(int unix_fd, net::ListenUnix(path, 128));
  loop_opts.listen_fds.push_back(unix_fd);
  if (!tcp.empty()) {
    Result<int> tcp_fd = net::ListenTcp(tcp, 128);
    if (!tcp_fd.ok()) {
      ::close(unix_fd);
      return tcp_fd.status();
    }
    // Resolve "tcp:HOST:0" to the kernel-assigned port so callers can
    // actually connect.
    Result<std::string> bound = net::LocalAddress(*tcp_fd);
    if (!bound.ok()) {
      ::close(unix_fd);
      ::close(*tcp_fd);
      return bound.status();
    }
    server->tcp_address_ = *bound;
    loop_opts.listen_fds.push_back(*tcp_fd);
  }
  AUTOMC_ASSIGN_OR_RETURN(server->loop_,
                          fleet::EventLoop::Start(std::move(loop_opts)));
  return server;
}

Server::~Server() { Stop(); }

void Server::RequestStop() {
  if (loop_ != nullptr) loop_->RequestStop();
}

void Server::Wait() {
  if (loop_ == nullptr || stopped_) return;
  loop_->Wait();
  stopped_ = true;
  ::unlink(socket_path_.c_str());
  // Checkpoint + durably re-queue running jobs, then flush metrics — the
  // same exit path automc_cli's signal handler uses.
  if (jobs_ != nullptr) jobs_->Shutdown(/*drain=*/true);
  metrics::MetricsRegistry::Global().DumpIfConfigured();
}

void Server::Stop() {
  RequestStop();
  Wait();
}

}  // namespace server
}  // namespace automc
