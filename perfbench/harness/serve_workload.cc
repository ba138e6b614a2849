// serve: one self-hosted automc_serve (its own process, unix socket) under
// open-loop Poisson load from loadgen::RunReplay over 4 connections, with
// the BENCH mix over a pre-published 1 MiB artifact. The main step runs at
// 300 qps; in the traced run a fixed ladder of higher rates, each step on a
// fresh server, gives the highest rate that meets the latency limit.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "artifact/manifest.h"
#include "common/sha256.h"
#include "harness.h"
#include "server/loadgen.h"
#include "server/protocol.h"

namespace perfbench {

namespace {

namespace loadgen = automc::server::loadgen;
using automc::server::Client;

constexpr char kMix[] =
    "status=65,list=10,submit=5,cancel=5,fetch=10,fetch_model=3";
constexpr char kArtifact[] = "bench-model";
// The latency step runs at about half the rate where status p99 first
// exceeds the ladder's limit on a 4-core box under this mix.
constexpr double kMainQps = 300.0;
// The ladder's rates above the main step; the traced run climbs them, each
// on a fresh server, for serve's capacity figure.
constexpr double kLadderQps[] = {600.0, 1200.0, 1800.0, 2400.0};
constexpr int kSetups = 15;

struct ServerProc {
  pid_t pid = -1;
  std::string dir;
  std::string socket;
  automc::Sha256Digest digest{};
  double setup_s = 0.0;
};

// Pre-publishes the artifact into a fresh registry, starts the daemon on it
// and waits for its first answered request.
bool StartServer(const Args& args, const std::string& name,
                 const std::string& blob, ServerProc* out) {
  namespace fs = std::filesystem;
  const auto t0 = Clock::now();
  out->dir = args.workdir + "/" + name;
  fs::remove_all(out->dir);
  fs::create_directories(out->dir);
  {
    automc::artifact::Registry::Options ropts;
    ropts.dir = out->dir + "/artifacts";
    auto registry = automc::artifact::Registry::Open(ropts);
    if (!registry.ok()) return false;
    automc::artifact::Provenance prov;
    prov.summary = "perfbench serve artifact";
    auto published = (*registry)->Publish(kArtifact, blob, prov);
    if (!published.ok()) return false;
    out->digest = published->blob_digest;
  }
  out->socket = out->dir + "/serve.sock";
  out->pid = Spawn({args.serve_bin, "--socket", out->socket, "--workdir",
                    out->dir + "/jobs", "--artifacts", out->dir + "/artifacts"},
                   out->dir + "/serve.log");
  if (out->pid < 0) return false;
  while (SecondsSince(t0) < 60.0) {
    auto client = Client::Connect(out->socket);
    if (client.ok() && client->ListJobs().ok()) {
      out->setup_s = SecondsSince(t0);
      return true;
    }
    ::usleep(2000);
  }
  return false;
}

automc::core::RunSpec SubmitSpec() {
  automc::core::RunSpec spec;
  spec.family = "vgg";
  spec.depth = 13;
  spec.dataset = "tiny";
  spec.searcher = "random";
  spec.budget = 1;
  spec.pretrain = 1;
  spec.eval_batch = 2;
  spec.seed = 4001;
  return spec;
}

std::string OpJson(const loadgen::Report& report, loadgen::Op op) {
  const int i = static_cast<int>(op);
  const loadgen::OpStats& s = report.per_op[i];
  return JsonObject()
      .Int("sent", s.sent)
      .Int("ok", s.ok)
      .Int("rejected", s.rejected)
      .Int("errors", s.errors)
      .Int("timeouts", s.timeouts)
      .Num("p50_ms", report.p50_ms[i])
      .Num("p95_ms", report.p95_ms[i])
      .Num("p99_ms", report.p99_ms[i])
      .str();
}

std::string StepJson(double qps, double horizon_s, const ServerProc& server,
                     double rss_mb, const loadgen::Report& report) {
  const loadgen::OpStats total = report.Total();
  return JsonObject()
      .Num("qps", qps)
      .Num("horizon_s", horizon_s)
      .Num("offered_qps", report.offered_qps)
      .Num("achieved_qps", report.achieved_qps)
      .Num("wall_s", report.wall_s)
      .Int("sent", total.sent)
      .Int("errors", total.errors)
      .Int("timeouts", total.timeouts)
      .Num("setup_s", server.setup_s)
      .Num("peak_rss_mb", rss_mb)
      .Raw("status", OpJson(report, loadgen::Op::kStatus))
      .Raw("fetch_model", OpJson(report, loadgen::Op::kFetchModel))
      .str();
}

// Fetches the model over the socket and checks the streamed bytes' SHA-256
// against the digest the registry returned at publish time.
void CheckStreamedModel(const ServerProc& server, Checks* checks) {
  auto client = Client::Connect(server.socket);
  if (!client.ok()) {
    checks->Expect(false, "connect for model check failed");
    return;
  }
  std::string bytes;
  auto info = client->FetchModel(kArtifact, [&bytes](std::string_view chunk) {
    bytes.append(chunk);
    return automc::Status::OK();
  });
  checks->Expect(info.ok() && info->blob_digest == server.digest &&
                     automc::Sha256::Hash(bytes) == server.digest,
                 "streamed model digest differs from the published digest");
}

double MedianMs(int n, const std::function<bool()>& call, Checks* checks) {
  std::vector<double> ms;
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    const bool ok = call();
    ms.push_back(MsSince(t0));
    checks->Expect(ok, "idle probe failed");
  }
  return Median(ms);
}

}  // namespace

int RunServeWorkload(const Args& args) {
  Checks checks;
  const std::string blob = PseudoRandomBytes(1u << 20, args.seed);
  std::vector<double> setups;
  std::vector<std::string> steps;
  Tracer tracer;

  loadgen::ReplayOptions options;
  options.schedule.connections = 4;
  options.schedule.mix = *loadgen::Mix::Parse(kMix);
  options.submit_spec = SubmitSpec();
  options.artifact_name = kArtifact;

  // Set-up, several times: artifact pre-publish, daemon start, first
  // answered request. The last server carries the main step.
  ServerProc main;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) StopChild(main.pid, 10.0);
    main = ServerProc{};
    if (!StartServer(args, "main-" + std::to_string(k), blob, &main)) {
      std::fprintf(stderr, "serve: server start failed\n");
      StopChild(main.pid, 5.0);
      return 1;
    }
    setups.push_back(main.setup_s);
  }

  JsonObject layers;
  if (args.trace) {
    auto client = Client::Connect(main.socket);
    if (!client.ok()) return 1;
    // Status of an id that does not exist: a full round trip that
    // touches no job state.
    double rtt = 0.0;
    const double overhead_pct = SpanOverheadPct(
        &tracer,
        [&client, &checks]() {
          auto r = client->JobStatus(999999);
          checks.Expect(!r.ok() && r.status().code() ==
                                       automc::StatusCode::kNotFound,
                        "idle status probe failed");
        },
        &rtt);
    const double fetch_model_idle = MedianMs(
        10,
        [&client]() {
          auto discard = [](std::string_view) { return automc::Status::OK(); };
          return client->FetchModel(kArtifact, discard).ok();
        },
        &checks);
    automc::artifact::Registry::Options ropts;
    ropts.dir = main.dir + "/artifacts";
    auto registry = automc::artifact::Registry::Open(ropts);
    const double fetch_blob = MedianMs(
        10,
        [&registry]() {
          return registry.ok() && (*registry)->FetchBlob(kArtifact).ok();
        },
        &checks);
    auto metrics = client->Metrics();
    layers.Num("server.status_rtt_idle_ms", rtt)
        .Num("server.fetch_model_idle_ms", fetch_model_idle)
        .Num("artifact.fetch_blob_ms", fetch_blob)
        .Num("trace.overhead_pct", overhead_pct)
        .Raw("server_metrics_before",
             OneLine(metrics.ok() ? *metrics : "{}"));
  }

  // The traced run gives half its time to the ladder.
  const double main_horizon = args.trace ? 0.5 * args.seconds : args.seconds;
  options.address = main.socket;
  options.schedule.qps = kMainQps;
  options.schedule.duration_s = main_horizon;
  options.schedule.seed = Mix64(args.seed);
  auto report = loadgen::RunReplay(options);
  if (!report.ok()) {
    std::fprintf(stderr, "serve: replay failed: %s\n",
                 report.status().ToString().c_str());
    StopChild(main.pid, 5.0);
    return 1;
  }
  for (int i = 0; i < 3; ++i) CheckStreamedModel(main, &checks);
  if (args.trace) {
    auto client = Client::Connect(main.socket);
    int64_t done = 0;
    if (client.ok()) {
      if (auto jobs = client->ListJobs(); jobs.ok()) {
        for (const auto& job : *jobs) {
          done += job.state == automc::server::JobState::kDone;
        }
      }
      auto metrics = client->Metrics();
      layers.Raw("server_metrics_after",
                 OneLine(metrics.ok() ? *metrics : "{}"));
    }
    layers.Int("server.jobs_done", done);
  }
  const double main_rss = PeakRssMb(main.pid);
  steps.push_back(StepJson(kMainQps, main_horizon, main, main_rss, *report));
  StopChild(main.pid, 10.0);

  // The rest of the ladder, each step on a fresh server.
  const size_t ladder_steps = args.trace ? std::size(kLadderQps) : 0;
  for (size_t k = 0; k < ladder_steps; ++k) {
    ServerProc server;
    const std::string name = "ladder-" + std::to_string(k);
    if (!StartServer(args, name, blob, &server)) {
      std::fprintf(stderr, "serve: server start failed (%s)\n", name.c_str());
      StopChild(server.pid, 5.0);
      return 1;
    }
    options.address = server.socket;
    options.schedule.qps = kLadderQps[k];
    options.schedule.duration_s = 0.5 * args.seconds / ladder_steps;
    options.schedule.seed = Mix64(args.seed + k + 1);
    auto step = loadgen::RunReplay(options);
    if (!step.ok()) {
      std::fprintf(stderr, "serve: replay failed: %s\n",
                   step.status().ToString().c_str());
      StopChild(server.pid, 5.0);
      return 1;
    }
    CheckStreamedModel(server, &checks);
    steps.push_back(StepJson(kLadderQps[k], options.schedule.duration_s,
                             server, PeakRssMb(server.pid), *step));
    StopChild(server.pid, 10.0);
  }

  std::string steps_json = "[";
  for (size_t i = 0; i < steps.size(); ++i) {
    steps_json += (i ? ", " : "") + steps[i];
  }
  steps_json += "]";
  JsonObject out;
  out.Str("workload", "serve")
      .Raw("stamp", MachineStamp())
      .Nums("setup_s", setups)
      .Num("peak_rss_mb", main_rss)
      .Raw("steps", steps_json)
      .Raw("checks", checks.ToJson());
  if (args.trace) out.Raw("layers", layers.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
