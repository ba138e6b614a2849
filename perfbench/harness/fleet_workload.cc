// fleet-jobs: a 2-worker coordinator over TCP. A closed loop of 2 clients
// each submits a tiny job, polls until DONE, then fetches the outcome and
// the published model "job-<id>". Every second job of a client repeats its
// previous spec, so the fleet's shared experience index serves it.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "artifact/manifest.h"
#include "common/bytes.h"
#include "common/sha256.h"
#include "core/run_spec.h"
#include "fleet/coordinator.h"
#include "harness.h"
#include "nn/serialize.h"
#include "search/report.h"
#include "server/protocol.h"
#include "server/server.h"
#include "store/experience_store.h"

namespace perfbench {

namespace {

using automc::server::Client;
using automc::server::JobState;

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kSetups = 9;
constexpr double kPollMs = 5.0;
// A job still unfinished this long after the timed phase ends fails.
constexpr double kJobDeadlineS = 60.0;
// Distinct specs re-run in process after the timed phase, for the identity
// checks and core.run_search_ms.
constexpr int kDirectChecks = 3;

automc::core::RunSpec JobSpec(uint64_t seed) {
  automc::core::RunSpec spec;
  spec.family = "vgg";
  spec.depth = 13;
  spec.dataset = "tiny";
  spec.searcher = "random";
  spec.budget = 4;
  spec.pretrain = 1;
  spec.eval_batch = 2;
  spec.seed = seed;
  return spec;
}

struct JobRecord {
  int client = 0;
  bool repeat = false;
  uint64_t spec_seed = 0;
  uint64_t id = 0;
  bool done = false;
  int32_t executions = -1;
  double submit_ms = 0.0;
  double queue_wait_ms = 0.0;
  double run_ms = 0.0;
  double turnaround_ms = 0.0;
  double fetch_outcome_ms = 0.0;
  double fetch_model_ms = 0.0;
  double end_s = 0.0;  // cycle end, seconds into the timed phase
  uint64_t model_bytes = 0;
  std::string outcome_sha;
  std::string model_sha;
  std::string error;
};

struct Fleet {
  std::unique_ptr<automc::fleet::Coordinator> coordinator;
  std::unique_ptr<automc::server::Server> server;

  void Stop() {
    if (server) server->Stop();
    if (coordinator) coordinator->Shutdown();
    server.reset();
    coordinator.reset();
  }
};

// Coordinator start, worker fork, and the first ListJobs answered by both
// workers.
bool StartFleet(const Args& args, int k, Fleet* fleet, double* setup_s) {
  namespace fs = std::filesystem;
  const auto t0 = Clock::now();
  const std::string dir = args.workdir + "/fleet-" + std::to_string(k);
  fs::remove_all(dir);
  fs::create_directories(dir);
  automc::fleet::Coordinator::Options copts;
  copts.num_workers = kWorkers;
  copts.workdir = dir + "/fleet";
  copts.artifact_dir = dir + "/artifacts";
  copts.worker_exe = args.serve_bin;
  auto coord = automc::fleet::Coordinator::Start(copts);
  if (!coord.ok()) return false;
  fleet->coordinator = std::move(*coord);
  automc::server::Server::Options sopts;
  sopts.socket_path = dir + "/fleet.sock";
  sopts.tcp_address = "tcp:127.0.0.1:0";
  sopts.idle_timeout_s = 0;
  sopts.handler = fleet->coordinator.get();
  auto srv = automc::server::Server::Start(std::move(sopts));
  if (!srv.ok()) return false;
  fleet->server = std::move(*srv);
  auto client = Client::Connect(fleet->server->tcp_address());
  if (!client.ok() || !client->ListJobs().ok()) return false;
  *setup_s = SecondsSince(t0);
  return true;
}

// One closed-loop client: submit, poll to a terminal state, fetch outcome
// and model, repeat until the deadline.
void ClientLoop(const std::string& address, int c, uint64_t seed,
                Clock::time_point start, double seconds,
                std::vector<JobRecord>* out) {
  auto client = Client::Connect(address);
  if (!client.ok()) {
    JobRecord r;
    r.client = c;
    r.error = "connect: " + client.status().ToString();
    out->push_back(r);
    return;
  }
  uint64_t spec_seed = 0;
  for (int j = 0; SecondsSince(start) < seconds; ++j) {
    JobRecord r;
    r.client = c;
    r.repeat = (j % 2) == 1;
    if (!r.repeat) spec_seed = 1 + Mix64(seed * 131 + c * 100003 + j) % 1000000;
    r.spec_seed = spec_seed;
    const auto t0 = Clock::now();
    auto id = client->Submit(JobSpec(spec_seed));
    r.submit_ms = MsSince(t0);
    if (!id.ok()) {
      r.error = "submit: " + id.status().ToString();
      out->push_back(r);
      continue;
    }
    r.id = *id;
    double running_at = -1.0;
    for (;;) {
      auto info = client->JobStatus(r.id);
      const double now = MsSince(t0);
      if (!info.ok()) {
        r.error = "status: " + info.status().ToString();
        break;
      }
      if (SecondsSince(start) > seconds + kJobDeadlineS) {
        r.error = "job did not finish";
        break;
      }
      if (info->state == JobState::kRunning && running_at < 0) {
        running_at = now;
      }
      if (automc::server::JobStateIsTerminal(info->state)) {
        r.done = info->state == JobState::kDone;
        if (!r.done) r.error = "job ended " + info->error;
        r.executions = info->executions;
        r.turnaround_ms = now;
        // A job that ran between two polls was never seen RUNNING.
        if (running_at < 0) running_at = now;
        r.queue_wait_ms = running_at;
        r.run_ms = now - running_at;
        break;
      }
      ::usleep(static_cast<useconds_t>(kPollMs * 1000));
    }
    if (r.done) {
      auto t1 = Clock::now();
      auto outcome = client->FetchOutcomeBytes(r.id);
      r.fetch_outcome_ms = MsSince(t1);
      if (outcome.ok()) {
        r.outcome_sha = automc::HexDigest(automc::Sha256::Hash(*outcome));
      }
      t1 = Clock::now();
      automc::Sha256 model_hash;
      auto model = client->FetchModel(
          "job-" + std::to_string(r.id), [&model_hash](std::string_view chunk) {
            model_hash.Update(chunk.data(), chunk.size());
            return automc::Status::OK();
          });
      r.fetch_model_ms = MsSince(t1);
      if (model.ok()) {
        r.model_sha = automc::HexDigest(model_hash.Finish());
        r.model_bytes = model->total_size;
      }
      if (!outcome.ok() || !model.ok()) {
        r.error = "fetch failed";
        r.done = false;
      }
    }
    r.end_s = SecondsSince(start);
    out->push_back(r);
  }
}

std::string RecordJson(const JobRecord& r) {
  return JsonObject()
      .Int("client", r.client)
      .Bool("repeat", r.repeat)
      .Int("spec_seed", static_cast<int64_t>(r.spec_seed))
      .Bool("done", r.done)
      .Int("executions", r.executions)
      .Num("submit_ms", r.submit_ms)
      .Num("queue_wait_ms", r.queue_wait_ms)
      .Num("run_ms", r.run_ms)
      .Num("turnaround_ms", r.turnaround_ms)
      .Num("fetch_outcome_ms", r.fetch_outcome_ms)
      .Num("fetch_model_ms", r.fetch_model_ms)
      .Num("end_s", r.end_s)
      .str();
}

// Direct, fsync'd appends on a fresh store: the write the workers pay per
// fresh evaluation.
double StoreAppendMs(const std::string& dir, Checks* checks) {
  auto store = automc::store::ExperienceStore::Open(dir + "/append.bin");
  if (!store.ok()) {
    checks->Expect(false, "store open failed");
    return 0.0;
  }
  (*store)->Bind({1, 2});
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    automc::store::EvalRecord rec;
    rec.scheme = {i, i + 1};
    rec.acc = 0.5;
    const auto t0 = Clock::now();
    checks->Expect((*store)->Append(rec).ok(), "store append failed");
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

// Direct publishes of job-model-sized blobs into a fresh registry.
double PublishMs(const std::string& dir, size_t bytes, uint64_t seed,
                 Checks* checks) {
  automc::artifact::Registry::Options ropts;
  ropts.dir = dir + "/publish";
  auto registry = automc::artifact::Registry::Open(ropts);
  if (!registry.ok()) {
    checks->Expect(false, "registry open failed");
    return 0.0;
  }
  std::vector<double> ms;
  for (int i = 0; i < 10; ++i) {
    const std::string blob = PseudoRandomBytes(bytes, seed + i);
    const auto t0 = Clock::now();
    checks->Expect((*registry)
                       ->Publish("m-" + std::to_string(i), blob,
                                 automc::artifact::Provenance{})
                       .ok(),
                   "publish failed");
    ms.push_back(MsSince(t0));
  }
  return Median(ms);
}

}  // namespace

int RunFleetWorkload(const Args& args) {
  Checks checks;
  std::vector<double> setups;
  Fleet fleet;
  for (int k = 0; k < kSetups; ++k) {
    double setup_s = 0.0;
    if (!StartFleet(args, k, &fleet, &setup_s)) {
      std::fprintf(stderr, "fleet-jobs: fleet start failed\n");
      fleet.Stop();
      return 1;
    }
    setups.push_back(setup_s);
    if (k + 1 < kSetups) fleet.Stop();
  }
  const std::string address = fleet.server->tcp_address();

  const auto start = Clock::now();
  std::vector<std::vector<JobRecord>> per_client(kClients);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(ClientLoop, address, c, args.seed, start,
                           args.seconds, &per_client[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  const double timed_wall_s = SecondsSince(start);

  double rss = 0.0;
  for (int w = 1; w <= kWorkers; ++w) {
    rss = std::max(rss, PeakRssMb(fleet.coordinator->worker_pid(w)));
  }
  JsonObject layers;
  std::string worker_metrics = "[";
  double overhead_pct = 0.0;
  if (args.trace) {
    auto client = Client::Connect(address);
    for (uint32_t w = 1; client.ok() && w <= kWorkers; ++w) {
      automc::ByteWriter payload;
      payload.U32(w);
      auto reply = client->Call(automc::server::MsgType::kGetMetrics,
                                payload.Take());
      const bool ok = reply.ok() && reply->type == static_cast<uint32_t>(
                                        automc::server::MsgType::kMetrics);
      worker_metrics +=
          (w > 1 ? ", " : "") + OneLine(ok ? reply->payload : "{}");
    }
    // Span cost on the loop's most frequent call, a status poll.
    Tracer tracer;
    double status_ms = 0.0;
    if (client.ok()) {
      overhead_pct = SpanOverheadPct(
          &tracer, [&client]() { (void)client->JobStatus(1); }, &status_ms);
    }
  }
  worker_metrics += "]";
  fleet.Stop();

  // Output checks. Each repeat must reproduce its original's bytes; the
  // first few originals must equal a direct RunSearch and the serialized
  // MaterializeScheme of their winning scheme.
  std::vector<JobRecord> jobs;
  for (const auto& v : per_client) jobs.insert(jobs.end(), v.begin(), v.end());
  std::map<uint64_t, const JobRecord*> originals;
  for (const JobRecord& r : jobs) {
    checks.Expect(r.done, "job " + std::to_string(r.id) + ": " + r.error);
    if (!r.done) continue;
    if (!r.repeat) {
      originals[r.spec_seed] = &r;
      continue;
    }
    auto it = originals.find(r.spec_seed);
    checks.Expect(it != originals.end() &&
                      it->second->outcome_sha == r.outcome_sha &&
                      it->second->model_sha == r.model_sha,
                  "repeat job " + std::to_string(r.id) +
                      " differs from its original");
  }
  std::vector<double> run_search_ms;
  for (const JobRecord& r : jobs) {
    if (!r.done || r.repeat ||
        static_cast<int>(run_search_ms.size()) >= kDirectChecks) {
      continue;
    }
    const automc::core::RunSpec spec = JobSpec(r.spec_seed);
    const auto t0 = Clock::now();
    auto direct = automc::core::RunSearch(spec);
    run_search_ms.push_back(MsSince(t0));
    if (!direct.ok()) {
      checks.Expect(false, "direct RunSearch failed");
      continue;
    }
    const std::string outcome =
        automc::search::SaveOutcomeBytes(direct->outcome);
    checks.Expect(automc::HexDigest(automc::Sha256::Hash(outcome)) ==
                      r.outcome_sha,
                  "job " + std::to_string(r.id) +
                      " outcome differs from a direct RunSearch");
    auto win = automc::core::PickWinningScheme(direct->outcome);
    std::string model_sha;
    if (win.ok()) {
      auto model = automc::core::MaterializeScheme(
          spec, direct->outcome.pareto_schemes[*win]);
      std::ostringstream blob;
      if (model.ok() && automc::nn::SerializeModel(model->get(), &blob).ok()) {
        model_sha = automc::HexDigest(automc::Sha256::Hash(blob.str()));
      }
    }
    checks.Expect(!model_sha.empty() && model_sha == r.model_sha,
                  "job " + std::to_string(r.id) +
                      " model differs from MaterializeScheme");
  }

  if (args.trace) {
    size_t model_bytes = 0;
    for (const JobRecord& r : jobs) {
      model_bytes = std::max<size_t>(model_bytes, r.model_bytes);
    }
    layers.Num("store.append_ms", StoreAppendMs(args.workdir, &checks))
        .Num("artifact.publish_ms",
             PublishMs(args.workdir, model_bytes, args.seed, &checks))
        .Num("core.run_search_ms", Median(run_search_ms))
        .Num("trace.overhead_pct", overhead_pct)
        .Raw("worker_metrics", worker_metrics);
  }

  std::string records = "[";
  for (size_t i = 0; i < jobs.size(); ++i) {
    records += (i ? ", " : "") + RecordJson(jobs[i]);
  }
  records += "]";
  JsonObject out;
  out.Str("workload", "fleet-jobs")
      .Raw("stamp", MachineStamp())
      .Nums("setup_s", setups)
      .Num("peak_rss_mb", rss)
      .Num("timed_wall_s", timed_wall_s)
      .Num("poll_interval_ms", kPollMs)
      .Raw("jobs", records)
      .Raw("checks", checks.ToJson());
  if (args.trace) out.Raw("layers", layers.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
