#include "fleet/coordinator.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "server/artifact_stream.h"

namespace automc {
namespace fleet {

namespace {

namespace fs = std::filesystem;

using server::ErrorFrame;
using server::Frame;
using server::JobInfo;
using server::MsgType;
using server::ReplyFrame;

// One bounded retry window across a worker respawn. Long enough for the
// monitor to notice the death (50ms poll) and the replacement to finish
// JobManager recovery; short enough that a permanently failing exec
// surfaces as an error instead of a hang.
constexpr double kCallDeadlineSeconds = 10.0;

int WorkersFromEnv() {
  const char* env = std::getenv("AUTOMC_FLEET_WORKERS");
  if (env == nullptr || *env == '\0') return 2;
  int v = std::atoi(env);
  return v > 0 ? v : 2;
}

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

Result<std::unique_ptr<Coordinator>> Coordinator::Start(Options options) {
  if (options.workdir.empty()) {
    return Status::InvalidArgument("Coordinator needs a workdir");
  }
  int n = options.num_workers > 0 ? options.num_workers : WorkersFromEnv();
  if (n > 64) n = 64;

  std::unique_ptr<Coordinator> coord(new Coordinator());
  coord->options_ = options;
  coord->shared_dir_ = options.shared_dir.empty()
                           ? options.workdir + "/experience"
                           : options.shared_dir;
  coord->artifact_dir_ = options.artifact_dir;
  if (coord->artifact_dir_.empty()) {
    if (const char* env = std::getenv("AUTOMC_ARTIFACT_DIR");
        env != nullptr && *env != '\0') {
      coord->artifact_dir_ = env;
    } else {
      coord->artifact_dir_ = options.workdir + "/artifacts";
    }
  }
  coord->worker_exe_ =
      options.worker_exe.empty() ? "/proc/self/exe" : options.worker_exe;

  std::error_code ec;
  fs::create_directories(coord->shared_dir_, ec);
  if (ec) {
    return Status::Internal("cannot create " + coord->shared_dir_ + ": " +
                            ec.message());
  }
  // The coordinator serves fetches from the shared registry itself —
  // worker publishes land here durably, so FetchModel works even while
  // the publishing worker is down (or was SIGKILLed and is respawning).
  artifact::Registry::Options reg_opts;
  reg_opts.dir = coord->artifact_dir_;
  if (Result<std::unique_ptr<artifact::Registry>> reg =
          artifact::Registry::Open(reg_opts);
      reg.ok()) {
    coord->registry_ = std::move(*reg);
  } else {
    AUTOMC_LOG(Warning) << "fleet artifact registry unavailable: "
                        << reg.status().ToString();
  }

  for (int i = 0; i < n; ++i) {
    coord->slots_.push_back(std::make_unique<Slot>());
  }
  for (size_t i = 0; i < coord->slots_.size(); ++i) {
    std::unique_lock<std::mutex> lock(coord->slots_[i]->mu);
    AUTOMC_RETURN_IF_ERROR(coord->Spawn(i));
  }
  coord->monitor_ = std::thread([c = coord.get()] { c->MonitorLoop(); });

  // Recover the global id counter: ids live in the workers' durable job
  // dirs, so the max over every worker's job list is the high-water mark.
  uint64_t max_id = 0;
  for (size_t i = 0; i < coord->slots_.size(); ++i) {
    AUTOMC_ASSIGN_OR_RETURN(std::vector<JobInfo> jobs,
                            coord->ListWorkerJobs(i));
    for (const JobInfo& info : jobs) max_id = std::max(max_id, info.id);
  }
  coord->next_id_ = max_id + 1;
  return coord;
}

Coordinator::~Coordinator() { Shutdown(); }

Status Coordinator::Spawn(size_t slot) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    return Errno("socketpair");
  }
  // Our end must not leak into any child; the worker's end must survive
  // the exec (it is the worker's --control-fd).
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);

  const std::string worker_dir =
      options_.workdir + "/worker-" + std::to_string(slot + 1);
  // Everything the child needs is built BEFORE fork: between fork and
  // exec only async-signal-safe calls are allowed in a multithreaded
  // parent (no malloc).
  const std::string control_arg = "--control-fd=" + std::to_string(sv[1]);
  const std::string workdir_arg = "--workdir=" + worker_dir;
  const std::string exp_arg = "--experience=" + shared_dir_;
  const std::string seg_arg =
      "--segment=seg-" + std::to_string(slot + 1) + ".bin";
  const std::string art_arg = "--artifacts=" + artifact_dir_;
  const char* argv[] = {worker_exe_.c_str(), "--worker", control_arg.c_str(),
                        workdir_arg.c_str(), exp_arg.c_str(), seg_arg.c_str(),
                        art_arg.c_str(), nullptr};

  pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(worker_exe_.c_str(), const_cast<char* const*>(argv));
    _exit(127);  // exec failed; the monitor sees the exit and retries
  }
  ::close(sv[1]);
  if (pid < 0) {
    ::close(sv[0]);
    return Errno("fork");
  }
  slots_[slot]->pid = pid;
  slots_[slot]->fd = sv[0];
  AUTOMC_METRIC_COUNT("fleet.workers_spawned");
  return Status::OK();
}

void Coordinator::MonitorLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    for (;;) {
      int wstatus = 0;
      pid_t pid = ::waitpid(-1, &wstatus, WNOHANG);
      if (pid <= 0) break;
      for (size_t i = 0; i < slots_.size(); ++i) {
        Slot* slot = slots_[i].get();
        std::unique_lock<std::mutex> lock(slot->mu);
        if (slot->pid != pid) continue;
        AUTOMC_LOG(Warning) << "fleet worker " << (i + 1) << " (pid " << pid
                            << ") died; respawning";
        AUTOMC_METRIC_COUNT("fleet.worker_deaths");
        if (slot->fd >= 0) ::close(slot->fd);
        slot->fd = -1;
        slot->pid = -1;
        if (!stopping_.load(std::memory_order_acquire)) {
          // The respawned worker's JobManager recovery re-queues its
          // non-terminal jobs in id order — deterministic re-queue.
          if (automc::Status st = Spawn(i); !st.ok()) {
            AUTOMC_LOG(Error) << "fleet worker " << (i + 1)
                              << " respawn failed: " << st.ToString();
          }
        }
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

Result<Frame> Coordinator::Call(size_t slot_idx, MsgType type,
                                std::string_view payload) {
  Slot* slot = slots_[slot_idx].get();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(kCallDeadlineSeconds);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(slot->mu);
      if (slot->fd >= 0) {
        automc::Status wst = server::WriteFrame(slot->fd, type, payload);
        if (wst.ok()) {
          Result<Frame> reply = server::ReadFrame(slot->fd);
          if (reply.ok()) return reply;
        }
        // Transport broke mid-call (worker died). Drop the channel; the
        // monitor respawns the worker and the loop retries. All control
        // messages are safe to retry: reads are idempotent and
        // submission uses kSubmitWithId.
        ::close(slot->fd);
        slot->fd = -1;
      }
    }
    if (stopping_.load(std::memory_order_acquire) ||
        std::chrono::steady_clock::now() >= deadline) {
      return Status::FailedPrecondition(
          "fleet worker " + std::to_string(slot_idx + 1) + " unavailable");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

Result<std::vector<JobInfo>> Coordinator::ListWorkerJobs(size_t slot) {
  AUTOMC_ASSIGN_OR_RETURN(Frame reply, Call(slot, MsgType::kListJobs, ""));
  if (reply.type == static_cast<uint32_t>(MsgType::kError)) {
    return server::DecodeError(reply.payload);
  }
  if (reply.type != static_cast<uint32_t>(MsgType::kJobList)) {
    return Status::Internal("worker " + std::to_string(slot + 1) +
                            " did not list its jobs");
  }
  return server::DecodeJobList(reply.payload);
}

Frame Coordinator::Handle(uint64_t client, const Frame& request) {
  (void)client;
  switch (static_cast<MsgType>(request.type)) {
    case MsgType::kSubmitJob: {
      // Sanity-decode before burning an id; semantic validation happens
      // in the worker (the same ValidateRunSpec a direct run hits).
      core::RunSpec spec;
      ByteReader r(request.payload);
      if (!core::DecodeRunSpec(&r, &spec) || !r.Done()) {
        return ErrorFrame(Status::InvalidArgument("malformed RunSpec payload"));
      }
      uint64_t id = 0;
      {
        std::unique_lock<std::mutex> lock(id_mu_);
        id = next_id_++;
      }
      ByteWriter w;
      w.U64(id);
      w.Raw(request.payload.data(), request.payload.size());
      Result<Frame> reply =
          Call(SlotOf(id), MsgType::kSubmitWithId, w.str());
      if (!reply.ok()) return ErrorFrame(reply.status());
      if (reply->type == static_cast<uint32_t>(MsgType::kSubmitted)) {
        AUTOMC_METRIC_COUNT("fleet.jobs_sharded");
      }
      return *std::move(reply);
    }
    case MsgType::kJobStatus:
    case MsgType::kCancelJob:
    case MsgType::kFetchOutcome: {
      ByteReader r(request.payload);
      uint64_t id = 0;
      if (!r.U64(&id) || !r.Done() || id == 0) {
        return ErrorFrame(Status::InvalidArgument("malformed job-id payload"));
      }
      Result<Frame> reply = Call(
          SlotOf(id), static_cast<MsgType>(request.type), request.payload);
      if (!reply.ok()) return ErrorFrame(reply.status());
      return *std::move(reply);
    }
    case MsgType::kListJobs: {
      // Fan out and merge by id — the client sees one job namespace.
      std::map<uint64_t, JobInfo> merged;
      for (size_t i = 0; i < slots_.size(); ++i) {
        Result<std::vector<JobInfo>> jobs = ListWorkerJobs(i);
        if (!jobs.ok()) return ErrorFrame(jobs.status());
        for (JobInfo& info : *jobs) merged.emplace(info.id, std::move(info));
      }
      ByteWriter w;
      w.U32(static_cast<uint32_t>(merged.size()));
      for (const auto& [id, info] : merged) server::EncodeJobInfo(info, &w);
      return ReplyFrame(MsgType::kJobList, w.Take());
    }
    case MsgType::kGetMetrics: {
      if (request.payload.empty()) {
        return ReplyFrame(MsgType::kMetrics,
                          metrics::MetricsRegistry::Global().ToJson());
      }
      ByteReader r(request.payload);
      uint32_t worker_id = 0;
      if (!r.U32(&worker_id) || !r.Done() || worker_id == 0 ||
          worker_id > slots_.size()) {
        return ErrorFrame(Status::InvalidArgument(
            "metrics payload must be empty or a worker id in [1, " +
            std::to_string(slots_.size()) + "]"));
      }
      Result<Frame> reply = Call(worker_id - 1, MsgType::kGetMetrics, "");
      if (!reply.ok()) return ErrorFrame(reply.status());
      return *std::move(reply);
    }
    case MsgType::kListArtifacts:
      return server::ArtifactListReply(registry_.get());
    case MsgType::kSubmitWithId:
      return ErrorFrame(Status::InvalidArgument(
          "kSubmitWithId is internal: the coordinator assigns job ids"));
    default:
      return ErrorFrame(Status::InvalidArgument(
          "unknown request type " + std::to_string(request.type)));
  }
}

std::unique_ptr<ReplyStream> Coordinator::HandleStream(
    uint64_t client, const Frame& request) {
  (void)client;
  if (static_cast<MsgType>(request.type) != MsgType::kFetchModel) {
    return nullptr;
  }
  return server::MakeModelStream(registry_.get(), request.payload);
}

pid_t Coordinator::worker_pid(int worker_id) const {
  if (worker_id < 1 || worker_id > static_cast<int>(slots_.size())) return -1;
  Slot* slot = slots_[static_cast<size_t>(worker_id - 1)].get();
  std::unique_lock<std::mutex> lock(slot->mu);
  return slot->pid;
}

void Coordinator::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    if (monitor_.joinable()) monitor_.join();

    // Closing the control channel is the shutdown signal: workers drain
    // (running jobs checkpoint + re-queue durably) and exit 0.
    for (auto& slot : slots_) {
      std::unique_lock<std::mutex> lock(slot->mu);
      if (slot->fd >= 0) ::close(slot->fd);
      slot->fd = -1;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    for (auto& slot : slots_) {
      pid_t pid;
      {
        std::unique_lock<std::mutex> lock(slot->mu);
        pid = slot->pid;
      }
      if (pid <= 0) continue;
      for (;;) {
        int wstatus = 0;
        pid_t got = ::waitpid(pid, &wstatus, WNOHANG);
        if (got == pid || (got < 0 && errno == ECHILD)) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          // A stuck worker loses nothing durable: its jobs re-queue on
          // the next recovery exactly as after a power cut.
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &wstatus, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      std::unique_lock<std::mutex> lock(slot->mu);
      slot->pid = -1;
    }
  });
}

}  // namespace fleet
}  // namespace automc
