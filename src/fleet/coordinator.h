#ifndef AUTOMC_FLEET_COORDINATOR_H_
#define AUTOMC_FLEET_COORDINATOR_H_

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "artifact/manifest.h"
#include "common/result.h"
#include "fleet/event_loop.h"
#include "server/protocol.h"

namespace automc {
namespace fleet {

// Fleet coordinator: shards submitted jobs across N forked worker
// processes, each running `automc_serve --worker` with a private job dir
// (<workdir>/worker-<i>) and a private AMCS control channel (a
// socketpair). Plugged into the public Server as its RequestHandler, so
// clients speak to the fleet exactly as they would to a single-process
// daemon.
//
// Determinism of the sharding: the coordinator assigns every job a
// global id and routes it — and every later request about it — to worker
// (id - 1) % N. Ids come from one counter (recovered at startup as
// max(existing ids) + 1 across workers), so a restarted coordinator
// routes old jobs to the same worker that owns their durable state.
//
// Crash story: a monitor thread reaps dead workers and respawns them;
// the respawned worker's own JobManager recovery re-queues its
// non-terminal jobs in id order (deterministically), and resumed jobs
// finish with the outcome an uninterrupted run produces — the per-job
// determinism contract, now per worker. In-flight control calls retry
// against the respawned worker; submission uses kSubmitWithId, which is
// idempotent, so a retry after a crash-during-ack cannot double-run a
// job. `kill -KILL` of any worker (or the whole fleet) loses nothing
// that was acknowledged.
class Coordinator : public RequestHandler {
 public:
  struct Options {
    // Worker process count; 0 reads $AUTOMC_FLEET_WORKERS (invalid or
    // unset => 2). Clamped to [1, 64].
    int num_workers = 0;
    // Fleet root; worker i lives in <workdir>/worker-<i>.
    std::string workdir;
    // Shared experience tier directory; empty = <workdir>/experience.
    std::string shared_dir;
    // Shared model artifact registry; empty reads $AUTOMC_ARTIFACT_DIR,
    // else <workdir>/artifacts. Every worker's JobManager publishes into
    // it (lock-serialized), and the coordinator serves FetchModel /
    // ListArtifacts from it directly — no worker round-trip, so a
    // published model stays fetchable even while its worker is down.
    std::string artifact_dir;
    // Worker binary to exec; empty = /proc/self/exe (the running
    // automc_serve). Tests point this at the built binary.
    std::string worker_exe;
  };

  static Result<std::unique_ptr<Coordinator>> Start(Options options);
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // RequestHandler: runs on the server's event-loop thread. Submissions
  // assign an id and do one bounded round-trip to the owning worker;
  // ListJobs fans out and merges. `client` is not yet forwarded: every
  // worker files fleet submits under tenant 0.
  server::Frame Handle(uint64_t client, const server::Frame& request) override;
  // kFetchModel streams straight from the shared registry (chunk reads
  // are lock-free mapped probes; no worker involved).
  std::unique_ptr<ReplyStream> HandleStream(
      uint64_t client, const server::Frame& request) override;

  // Closes every control channel (workers drain: running jobs checkpoint
  // and re-queue durably) and waits for them to exit; stragglers are
  // killed after a deadline. Idempotent.
  void Shutdown();

  int num_workers() const { return static_cast<int>(slots_.size()); }
  const std::string& shared_dir() const { return shared_dir_; }
  const std::string& artifact_dir() const { return artifact_dir_; }
  artifact::Registry* registry() { return registry_.get(); }
  // The live pid of a worker slot (1-based id), -1 if currently down.
  // Tests use this to SIGKILL a worker mid-job.
  pid_t worker_pid(int worker_id) const;

 private:
  struct Slot {
    // Serializes round-trips on the channel and fd swaps on respawn.
    mutable std::mutex mu;
    pid_t pid = -1;
    int fd = -1;
  };

  Coordinator() = default;

  // Forks + execs the worker for `slot` (its mu held by the caller).
  Status Spawn(size_t slot);
  // One request/reply round-trip to a worker, retrying across worker
  // respawns until `deadline_s` elapses. Only transport failures retry;
  // an error *reply* is returned as-is.
  Result<server::Frame> Call(size_t slot, server::MsgType type,
                             std::string_view payload);
  // A worker's jobs; its error reply comes back as the status.
  Result<std::vector<server::JobInfo>> ListWorkerJobs(size_t slot);
  void MonitorLoop();
  size_t SlotOf(uint64_t job_id) const {
    return static_cast<size_t>((job_id - 1) % slots_.size());
  }

  Options options_;
  std::string shared_dir_;
  std::string artifact_dir_;
  std::unique_ptr<artifact::Registry> registry_;
  std::string worker_exe_;
  std::vector<std::unique_ptr<Slot>> slots_;

  std::mutex id_mu_;
  uint64_t next_id_ = 1;

  std::atomic<bool> stopping_{false};
  std::thread monitor_;
  std::once_flag shutdown_once_;
};

}  // namespace fleet
}  // namespace automc

#endif  // AUTOMC_FLEET_COORDINATOR_H_
