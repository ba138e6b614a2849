#include "server/job_manager.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/durable.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "nn/serialize.h"
#include "search/report.h"
#include "store/experience_index.h"
#include "store/experience_store.h"

namespace automc {
namespace server {

namespace {

namespace fs = std::filesystem;

// Headers of the sealed single-blob files (durable::WriteSealedFile).
constexpr std::string_view kSpecMagic = "AMCJ";
constexpr std::string_view kOutcomeMagic = "AMCO";

int JobsFromEnv() {
  const char* env = std::getenv("AUTOMC_SERVER_JOBS");
  if (env == nullptr || *env == '\0') return 1;
  int v = std::atoi(env);
  return v > 0 ? v : 1;
}

}  // namespace

JobManager::JobManager(Options options) : options_(std::move(options)) {
  max_concurrent_ =
      options_.max_concurrent > 0 ? options_.max_concurrent : JobsFromEnv();
  if (max_concurrent_ > 64) max_concurrent_ = 64;
}

Result<std::unique_ptr<JobManager>> JobManager::Open(Options options) {
  if (options.workdir.empty()) {
    return Status::InvalidArgument("JobManager needs a workdir");
  }
  if (options.shared_dir.empty()) {
    if (const char* env = std::getenv("AUTOMC_EXPERIENCE_INDEX");
        env != nullptr) {
      options.shared_dir = env;
    }
  }
  if (options.artifact_dir.empty()) {
    if (const char* env = std::getenv("AUTOMC_ARTIFACT_DIR");
        env != nullptr && *env != '\0') {
      options.artifact_dir = env;
    } else {
      options.artifact_dir = options.workdir + "/artifacts";
    }
  }
  std::unique_ptr<JobManager> mgr(new JobManager(std::move(options)));
  std::error_code ec;
  fs::create_directories(mgr->options_.workdir + "/jobs", ec);
  if (ec) {
    return Status::Internal("cannot create " + mgr->options_.workdir +
                            "/jobs: " + ec.message());
  }
  artifact::Registry::Options reg_opts;
  reg_opts.dir = mgr->options_.artifact_dir;
  if (Result<std::unique_ptr<artifact::Registry>> reg =
          artifact::Registry::Open(reg_opts);
      reg.ok()) {
    mgr->registry_ = std::move(*reg);
  } else {
    // Jobs still run and finish; only model fetches degrade to NotFound.
    AUTOMC_LOG(Warning) << "artifact registry unavailable: "
                        << reg.status().ToString();
  }
  AUTOMC_RETURN_IF_ERROR(mgr->Recover());
  if (!mgr->options_.start_paused) mgr->StartWorkers();
  return mgr;
}

JobManager::~JobManager() { Shutdown(/*drain=*/true); }

std::string JobManager::JobDir(uint64_t id) const {
  return options_.workdir + "/jobs/" + std::to_string(id);
}

Status JobManager::PersistState(const Job& job) const {
  std::string body = JobStateName(job.state);
  body.push_back('\n');
  if (!job.error.empty()) {
    body += job.error;
    body.push_back('\n');
  }
  return durable::AtomicWriteFile(JobDir(job.id) + "/state", body);
}

JobInfo JobManager::InfoOf(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.state = job.state;
  info.summary = core::RunSpecSummary(job.spec);
  info.error = job.error;
  info.executions = job.executions;
  return info;
}

Status JobManager::Recover() {
  std::vector<uint64_t> recovered;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(options_.workdir + "/jobs", ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.empty() ||
        name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const uint64_t id = std::strtoull(name.c_str(), nullptr, 10);
    if (id == 0) continue;

    auto job = std::make_unique<Job>();
    job->id = id;
    Result<std::string> spec_body =
        durable::ReadSealedFile(JobDir(id) + "/spec.bin", kSpecMagic);
    if (!spec_body.ok()) continue;  // torn Submit: no durable job yet
    ByteReader r(*spec_body);
    if (!core::DecodeRunSpec(&r, &job->spec) || !r.Done()) continue;

    // A missing/torn state file can only come from a kill between writing
    // spec.bin and state — the job was accepted but never started.
    job->state = JobState::kQueued;
    if (Result<std::string> state_body =
            durable::ReadFile(JobDir(id) + "/state");
        state_body.ok()) {
      std::string_view body = *state_body;
      const size_t nl = body.find('\n');
      const std::string_view head = body.substr(0, nl);
      JobState parsed;
      if (ParseJobState(head, &parsed)) {
        job->state = parsed;
        if (nl != std::string_view::npos && nl + 1 < body.size()) {
          std::string_view rest = body.substr(nl + 1);
          while (!rest.empty() && rest.back() == '\n') rest.remove_suffix(1);
          job->error = std::string(rest);
        }
      }
    }

    if (job->state == JobState::kDone) {
      if (Result<std::string> outcome =
              durable::ReadSealedFile(JobDir(id) + "/outcome.bin",
                                      kOutcomeMagic);
          outcome.ok()) {
        if (Result<search::SearchOutcome> decoded =
                search::LoadOutcomeBytes(*outcome);
            decoded.ok()) {
          job->executions = decoded->executions;
        }
      }
    } else if (!JobStateIsTerminal(job->state)) {
      // QUEUED and RUNNING both re-enter the queue; a RUNNING job resumes
      // from its checkpoint inside RunJob.
      job->state = JobState::kQueued;
      job->queued_at = std::chrono::steady_clock::now();
      AUTOMC_RETURN_IF_ERROR(PersistState(*job));
      recovered.push_back(id);
      AUTOMC_METRIC_COUNT("server.jobs_recovered");
    }
    if (id >= next_id_) next_id_ = id + 1;
    jobs_[id] = std::move(job);
  }
  // directory_iterator ids come back in filesystem order; recovery must
  // preserve submission order. All recovered jobs share tenant 0 — their
  // submitters are gone — so the fair queue degenerates to the id-sorted
  // FIFO restarts have always replayed.
  std::sort(recovered.begin(), recovered.end());
  for (uint64_t id : recovered) queue_.Push(0, id);
  return Status::OK();
}

Result<uint64_t> JobManager::Submit(const core::RunSpec& spec,
                                    uint64_t tenant) {
  return SubmitInternal(0, spec, tenant);
}

Result<uint64_t> JobManager::SubmitWithId(uint64_t id,
                                          const core::RunSpec& spec) {
  if (id == 0) return Status::InvalidArgument("job id must be nonzero");
  // Fleet control channel: the coordinator already interleaves fairly, and
  // the submitting client's identity does not survive the hop — tenant 0.
  return SubmitInternal(id, spec, 0);
}

Result<uint64_t> JobManager::SubmitInternal(uint64_t want_id,
                                            const core::RunSpec& spec,
                                            uint64_t tenant) {
  AUTOMC_RETURN_IF_ERROR(core::ValidateRunSpec(spec));
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) return Status::FailedPrecondition("server shutting down");
  if (want_id != 0) {
    if (auto it = jobs_.find(want_id); it != jobs_.end()) {
      ByteWriter fresh, existing;
      core::EncodeRunSpec(spec, &fresh);
      core::EncodeRunSpec(it->second->spec, &existing);
      if (fresh.str() != existing.str()) {
        return Status::InvalidArgument("job " + std::to_string(want_id) +
                                       " already exists with a different "
                                       "spec");
      }
      return want_id;  // idempotent re-ack (coordinator retry)
    }
  }
  if (static_cast<int>(queue_.size()) + active_ >= options_.queue_capacity) {
    return Status::FailedPrecondition("job queue full");
  }
  const uint64_t id = want_id != 0 ? want_id : next_id_++;
  if (id >= next_id_) next_id_ = id + 1;

  std::error_code ec;
  fs::create_directories(JobDir(id), ec);
  if (ec) {
    return Status::Internal("cannot create " + JobDir(id) + ": " +
                            ec.message());
  }
  auto job = std::make_unique<Job>();
  job->id = id;
  job->spec = spec;
  ByteWriter w;
  core::EncodeRunSpec(spec, &w);
  AUTOMC_RETURN_IF_ERROR(durable::WriteSealedFile(JobDir(id) + "/spec.bin",
                                                  kSpecMagic, w.str()));
  AUTOMC_RETURN_IF_ERROR(PersistState(*job));

  job->queued_at = std::chrono::steady_clock::now();
  jobs_[id] = std::move(job);
  queue_.Push(tenant, id);
  AUTOMC_METRIC_GAUGE("server.queue_tenants",
                      static_cast<double>(queue_.tenants()));
  AUTOMC_METRIC_COUNT("server.jobs_submitted");
  cv_.notify_one();
  return id;
}

Result<JobInfo> JobManager::Info(uint64_t id) const {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  return InfoOf(*it->second);
}

std::vector<JobInfo> JobManager::List() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<JobInfo> infos;
  infos.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) infos.push_back(InfoOf(*job));
  return infos;
}

Status JobManager::Cancel(uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job " + std::to_string(id));
  }
  Job* job = it->second.get();
  if (JobStateIsTerminal(job->state)) {
    return Status::FailedPrecondition("job " + std::to_string(id) +
                                      " already " + JobStateName(job->state));
  }
  if (job->state == JobState::kQueued) {
    queue_.Remove(id);
    job->state = JobState::kCancelled;
    AUTOMC_METRIC_COUNT("server.jobs_cancelled");
    idle_cv_.notify_all();
    return PersistState(*job);
  }
  // RUNNING: cooperative — the searcher notices at its next round.
  job->cancel_requested = true;
  job->stop.RequestStop();
  return Status::OK();
}

Result<std::string> JobManager::OutcomeBytes(uint64_t id) const {
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return Status::NotFound("no job " + std::to_string(id));
    }
    if (it->second->state != JobState::kDone) {
      return Status::FailedPrecondition(
          "job " + std::to_string(id) + " is " +
          JobStateName(it->second->state) + ", not DONE");
    }
  }
  return durable::ReadSealedFile(JobDir(id) + "/outcome.bin", kOutcomeMagic,
                                 kMaxFramePayload);
}

void JobManager::StartWorkers() {
  std::unique_lock<std::mutex> lock(mu_);
  if (workers_started_ || stopping_) return;
  workers_started_ = true;
  for (int i = 0; i < max_concurrent_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void JobManager::WorkerLoop() {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;
      uint64_t id = 0;
      if (!queue_.PopNext(&id)) continue;
      job = jobs_[id].get();
      AUTOMC_METRIC_OBSERVE(
          "job.queue_wait_ms",
          (std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - job->queued_at)
               .count()));
      job->state = JobState::kRunning;
      ++active_;
      (void)PersistState(*job);
    }
    RunJob(job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      idle_cv_.notify_all();
    }
  }
}

void JobManager::RunJob(Job* job) {
  const std::string dir = JobDir(job->id);

  core::RunHooks hooks;
  hooks.stop = &job->stop;

  store::SearchCheckpointer::Options ckpt_opts;
  ckpt_opts.dir = dir;
  store::SearchCheckpointer checkpointer(ckpt_opts);
  if (automc::Status st = checkpointer.LoadPending();
      !st.ok() && st.code() != StatusCode::kNotFound) {
    std::unique_lock<std::mutex> lock(mu_);
    job->state = JobState::kFailed;
    job->error = "corrupt checkpoint: " + st.message();
    (void)PersistState(*job);
    return;
  }
  hooks.checkpointer = &checkpointer;

  Result<std::unique_ptr<store::ExperienceStore>> store =
      store::ExperienceStore::Open(dir + "/store.bin");
  if (!store.ok()) {
    std::unique_lock<std::mutex> lock(mu_);
    job->state = JobState::kFailed;
    job->error = "cannot open job store: " + store.status().message();
    (void)PersistState(*job);
    return;
  }
  hooks.store = store->get();

  // Attach the fleet's shared experience tier (when configured): local
  // store misses fall through to the mapped index, so schemes any worker
  // already evaluated are served without a real strategy execution. A
  // broken tier only degrades to cold evaluation — never fails the job.
  std::unique_ptr<store::ExperienceIndex> shared;
  if (!options_.shared_dir.empty()) {
    std::error_code shared_ec;
    fs::create_directories(options_.shared_dir, shared_ec);
    Result<std::unique_ptr<store::ExperienceIndex>> idx =
        store::ExperienceIndex::OpenOrRebuild(options_.shared_dir);
    if (idx.ok()) {
      shared = std::move(*idx);
      (*store)->AttachShared(shared.get());
    } else {
      AUTOMC_LOG(Warning) << "shared experience tier unavailable: "
                          << idx.status().ToString();
    }
  }

  const core::CompressionTask task = core::MakeTask(job->spec);
  Result<core::AutoMCResult> result = [&] {
    AUTOMC_SCOPED_TIMER("job.run_ms");
    return core::RunSearch(job->spec, task, hooks);
  }();
  // Before the DONE transition: a client that observes DONE may immediately
  // fetch "job-<id>".
  if (result.ok()) PublishResults(*job, task, *result, **store);

  std::unique_lock<std::mutex> lock(mu_);
  if (result.ok()) {
    const std::string bytes = search::SaveOutcomeBytes(result->outcome);
    if (automc::Status st =
            durable::WriteSealedFile(dir + "/outcome.bin", kOutcomeMagic,
                                     bytes);
        !st.ok()) {
      job->state = JobState::kFailed;
      job->error = "cannot persist outcome: " + st.message();
      (void)PersistState(*job);
      AUTOMC_METRIC_COUNT("server.jobs_failed");
      return;
    }
    job->state = JobState::kDone;
    job->executions = result->outcome.executions;
    (void)PersistState(*job);
    AUTOMC_METRIC_COUNT("server.jobs_done");
    return;
  }

  if (result.status().code() == StatusCode::kCancelled) {
    if (job->cancel_requested) {
      job->state = JobState::kCancelled;
      (void)PersistState(*job);
      AUTOMC_METRIC_COUNT("server.jobs_cancelled");
    } else {
      // Drain stop: the search checkpointed itself; park the job durably
      // QUEUED so the next process picks it up where it left off.
      job->state = JobState::kQueued;
      (void)PersistState(*job);
      AUTOMC_METRIC_COUNT("server.jobs_parked");
    }
    return;
  }

  job->state = JobState::kFailed;
  job->error = result.status().message();
  (void)PersistState(*job);
  AUTOMC_METRIC_COUNT("server.jobs_failed");
}

void JobManager::PublishResults(const Job& job,
                                const core::CompressionTask& task,
                                const core::AutoMCResult& result,
                                const store::ExperienceStore& store) {
  AUTOMC_SCOPED_TIMER("job.publish_ms");
  if (!options_.shared_dir.empty()) {
    std::vector<std::pair<store::Fingerprint, store::EvalRecord>> recs;
    recs.reserve(store.records().size());
    for (const auto& [fp, rec] : store.records()) recs.emplace_back(fp, *rec);
    if (automc::Status st = store::PublishExperience(
            options_.shared_dir, options_.shared_segment, recs);
        !st.ok()) {
      AUTOMC_LOG(Warning) << "experience publish failed: " << st.ToString();
    }
  }

  if (registry_ == nullptr) return;
  Result<size_t> win = core::PickWinningScheme(result.outcome);
  if (!win.ok()) return;  // empty front: nothing to deploy
  // The evaluator's own snapshot of the winner; only a winner this job never
  // executed (a repeat served from the shared tier) is rebuilt, from this
  // job's base model. The bytes equal MaterializeScheme of the same spec and
  // scheme, and a direct `automc_cli --export-model`.
  Result<std::shared_ptr<nn::Model>> model =
      core::WinningModel(job.spec, task, result);
  if (!model.ok()) {
    AUTOMC_LOG(Warning) << "job " << job.id << ": cannot build winning model: "
                        << model.status().ToString();
    return;
  }
  std::ostringstream blob;
  if (automc::Status st = nn::SerializeModel(model->get(), &blob); !st.ok()) {
    AUTOMC_LOG(Warning) << "job " << job.id << ": cannot serialize "
                        << "winning model: " << st.ToString();
    return;
  }
  const std::vector<int>& scheme = result.outcome.pareto_schemes[*win];
  const search::EvalPoint& point = result.outcome.pareto_points[*win];
  artifact::Provenance prov;
  prov.job_id = job.id;
  prov.scheme = core::SchemeIndicesToString(scheme);
  prov.summary = core::RunSpecSummary(job.spec);
  prov.acc = point.acc;
  prov.params = point.params;
  prov.flops = point.flops;
  const std::string name = "job-" + std::to_string(job.id);
  Result<artifact::Manifest> pub = registry_->Publish(name, blob.str(), prov);
  if (!pub.ok()) {
    AUTOMC_LOG(Warning) << "job " << job.id << ": artifact publish failed: "
                        << pub.status().ToString();
    return;
  }
  AUTOMC_METRIC_COUNT("server.models_published");
  AUTOMC_LOG(Info) << "job " << job.id << ": published artifact '" << name
                   << "' (" << pub->total_size << " bytes, "
                   << pub->chunks.size() << " chunks)";
}

bool JobManager::WaitIdle(double timeout_seconds) const {
  std::unique_lock<std::mutex> lock(mu_);
  return idle_cv_.wait_for(
      lock, std::chrono::duration<double>(timeout_seconds),
      [this] { return queue_.empty() && active_ == 0; });
}

void JobManager::Shutdown(bool drain) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
    if (drain) {
      for (auto& [id, job] : jobs_) {
        if (job->state == JobState::kRunning) job->stop.RequestStop();
      }
    }
    cv_.notify_all();
  }
  for (std::thread& t : workers_) t.join();
  workers_.clear();
}

}  // namespace server
}  // namespace automc
