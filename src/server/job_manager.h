#ifndef AUTOMC_SERVER_JOB_MANAGER_H_
#define AUTOMC_SERVER_JOB_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "artifact/manifest.h"
#include "common/result.h"
#include "core/run_spec.h"
#include "server/protocol.h"

namespace automc {
namespace server {

// Round-robin-fair job queue. Jobs are keyed by the tenant that submitted
// them (the event loop passes each connection's serial); PopNext cycles
// tenants so one connection pipelining a deep batch cannot starve a
// single job submitted by another — with N tenants queued, each gets
// every N-th job slot, while a single tenant degenerates to the plain
// FIFO the queue replaced (recovery re-queues everything under tenant 0,
// preserving the sorted-id restart order).
class FairQueue {
 public:
  void Push(uint64_t tenant, uint64_t id) {
    queues_[tenant].push_back(id);
    ++size_;
  }

  // Pops the oldest job of the next tenant after the last-served one
  // (wrapping); false when empty.
  bool PopNext(uint64_t* id) {
    if (size_ == 0) return false;
    auto it = queues_.upper_bound(cursor_);
    if (it == queues_.end()) it = queues_.begin();
    cursor_ = it->first;
    *id = it->second.front();
    it->second.pop_front();
    if (it->second.empty()) queues_.erase(it);
    --size_;
    return true;
  }

  // Removes a queued job by id (cancellation); false if not queued.
  bool Remove(uint64_t id) {
    for (auto it = queues_.begin(); it != queues_.end(); ++it) {
      for (auto jit = it->second.begin(); jit != it->second.end(); ++jit) {
        if (*jit != id) continue;
        it->second.erase(jit);
        if (it->second.empty()) queues_.erase(it);
        --size_;
        return true;
      }
    }
    return false;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // Tenants with at least one queued job (metrics/tests).
  size_t tenants() const { return queues_.size(); }

 private:
  std::map<uint64_t, std::deque<uint64_t>> queues_;
  uint64_t cursor_ = 0;
  size_t size_ = 0;
};

// Concurrent search-job executor with a durable lifecycle.
//
// Every job owns a directory <workdir>/jobs/<id>/ holding
//   spec.bin    — the CRC-guarded RunSpec, written before Submit returns;
//   state       — the current JobState (durable::AtomicWriteFile);
//   store.bin   — the job's private experience store (PR-3);
//   checkpoint.bin — the job's private search checkpoint (PR-3);
//   outcome.bin — the CRC-guarded SaveOutcomeBytes payload once DONE.
// Because the spec and state are durable before any work starts, a process
// killed at *any* instant loses nothing: Open() re-queues every job found
// in a non-terminal state, and a re-queued RUNNING job resumes from its
// checkpoint + store, finishing with the outcome an uninterrupted run
// produces (the PR-3/PR-4 determinism contract, per job).
//
// Concurrency: up to Options::max_concurrent dedicated job threads
// (default: $AUTOMC_SERVER_JOBS, else 1) pop the bounded FIFO. Each job
// builds its own evaluator/store/checkpointer, so jobs share only the
// global thread pool and the metrics registry — nothing that affects
// results — and concurrent outcomes stay bit-identical to solo runs.
//
// Cancellation is cooperative: Cancel() flips the job's StopToken, which
// the searchers poll between rounds (search::CheckStop). Shutdown(drain:
// true) does the same to every running job but re-marks them QUEUED
// instead of CANCELLED, parking the work for the next process.
class JobManager {
 public:
  struct Options {
    std::string workdir;
    // Concurrent job threads; 0 reads $AUTOMC_SERVER_JOBS (invalid or
    // unset => 1). Clamped to [1, 64].
    int max_concurrent = 0;
    // Bounded FIFO: Submit fails once this many jobs are queued or running.
    int queue_capacity = 64;
    // Shared experience tier directory (the fleet's cross-worker cache).
    // Empty reads $AUTOMC_EXPERIENCE_INDEX; empty in both places = off.
    // When set, each job's private store consults the tier's mapped index
    // on local misses, and every finished job's records are appended to
    // `shared_segment` + republished — so a scheme any worker evaluated
    // is never executed again anywhere in the fleet.
    std::string shared_dir;
    // Segment file this process appends to (one appender per segment).
    std::string shared_segment = "seg-0.bin";
    // Model artifact registry root (docs/artifacts.md). Every finished
    // job's winning pareto model is materialized, serialized, and
    // published here as "job-<id>" (best effort — a publish failure never
    // fails the job). Empty reads $AUTOMC_ARTIFACT_DIR, else defaults to
    // <workdir>/artifacts. Fleet workers all point at the coordinator's
    // shared directory: publishes are lock-serialized, fetches are
    // lock-free mapped reads, so any worker's model is fetchable anywhere.
    std::string artifact_dir;
    // Test-only: don't start job threads; Submit still persists + queues.
    // Lets tests model "the server died with jobs still queued".
    bool start_paused = false;
  };

  // Creates <workdir>/jobs/ if needed and recovers every existing job.
  static Result<std::unique_ptr<JobManager>> Open(Options options);
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  // Durably persists the job, then queues it. Fails when the queue is full
  // or the manager is shutting down. `tenant` is the fairness key (the
  // submitting connection's serial; 0 = anonymous): queued jobs are
  // dispatched round-robin across tenants, not globally FIFO.
  Result<uint64_t> Submit(const core::RunSpec& spec, uint64_t tenant = 0);

  // Fleet control-channel path: submits under a coordinator-assigned id.
  // Idempotent — if the id already exists with the same spec bytes it is
  // re-acknowledged without re-queueing (a coordinator retrying after a
  // worker respawn must not run the job twice); a different spec under an
  // existing id is an error. Local next_id_ jumps past `id`, so mixing
  // with Submit() cannot collide.
  Result<uint64_t> SubmitWithId(uint64_t id, const core::RunSpec& spec);

  Result<JobInfo> Info(uint64_t id) const;
  std::vector<JobInfo> List() const;

  // Requests cooperative cancellation. QUEUED jobs cancel immediately;
  // RUNNING jobs stop at the next search round. Terminal jobs: error.
  Status Cancel(uint64_t id);

  // The SaveOutcomeBytes payload of a DONE job (read from outcome.bin).
  Result<std::string> OutcomeBytes(uint64_t id) const;

  // Starts the job threads when Options::start_paused was set.
  void StartWorkers();

  // Blocks until no job is QUEUED or RUNNING, or the timeout elapses.
  bool WaitIdle(double timeout_seconds) const;

  // Stops the job threads. drain=true asks running jobs to checkpoint and
  // re-queue (durably QUEUED for the next process); drain=false is only
  // used by tests that simulate an abrupt death. Idempotent.
  void Shutdown(bool drain);

  int max_concurrent() const { return max_concurrent_; }

  // The model artifact registry (nullptr only if its directory could not
  // be created — fetches then see "no artifact", jobs still run).
  artifact::Registry* registry() { return registry_.get(); }

 private:
  struct Job {
    uint64_t id = 0;
    core::RunSpec spec;
    JobState state = JobState::kQueued;
    std::string error;
    int32_t executions = -1;
    search::StopToken stop;
    bool cancel_requested = false;
  };

  explicit JobManager(Options options);

  Result<uint64_t> SubmitInternal(uint64_t want_id, const core::RunSpec& spec,
                                  uint64_t tenant);
  Status Recover();
  void WorkerLoop();
  // Runs one job end to end; returns the final state transition.
  void RunJob(Job* job);
  std::string JobDir(uint64_t id) const;
  Status PersistState(const Job& job) const;
  JobInfo InfoOf(const Job& job) const;

  Options options_;
  int max_concurrent_ = 1;
  std::unique_ptr<artifact::Registry> registry_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;       // queue + shutdown wakeups
  mutable std::condition_variable idle_cv_;  // WaitIdle wakeups
  std::map<uint64_t, std::unique_ptr<Job>> jobs_;
  FairQueue queue_;
  uint64_t next_id_ = 1;
  int active_ = 0;  // jobs currently RUNNING
  bool stopping_ = false;
  bool workers_started_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace automc

#endif  // AUTOMC_SERVER_JOB_MANAGER_H_
