#ifndef AUTOMC_SERVER_LOADGEN_H_
#define AUTOMC_SERVER_LOADGEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/run_spec.h"

namespace automc {
namespace server {
namespace loadgen {

// Open-loop load generator for an automc_serve endpoint (bench/load_replay
// is the CLI driver; docs/operations.md is the runbook).
//
// "Open loop" means the request schedule is fixed before the run starts —
// arrivals are a seeded Poisson process at the target QPS — and a request
// is *charged from its scheduled send time*, whether or not earlier
// requests have been answered yet. A closed-loop client (send, wait,
// send) silently stops offering load the moment the server slows down,
// which hides exactly the tail latency an SLO cares about (coordinated
// omission). Here a slow server faces the same arrival rate regardless,
// back-to-back requests pipeline onto their connection, and an answer
// that misses the timeout is recorded as a timeout instead of a latency
// sample.

// The request mix. Weights are relative, not percentages.
enum class Op : uint32_t {
  kStatus = 0,  // kJobStatus of a known (or probing) job id
  kList = 1,    // kListJobs
  kSubmit = 2,  // kSubmitJob of ReplayOptions::submit_spec
  kCancel = 3,  // kCancelJob of a known job id
  kFetch = 4,   // kFetchOutcome of a known job id
  // kFetchModel of ReplayOptions::artifact_name: the one *streaming* reply
  // in the protocol (kModelStart + chunks + kModelEnd). Latency is charged
  // at kModelEnd — the whole multi-MiB artifact must land, flowing through
  // the server's write watermarks, before the op counts as answered.
  kFetchModel = 5,
};
inline constexpr int kNumOps = 6;
const char* OpName(Op op);

struct Mix {
  // Indexed by static_cast<int>(Op). Defaults to the serving-tier shape:
  // poll-dominated with a trickle of submits and outcome fetches
  // (fetch_model off by default: it needs a published artifact to target).
  double weight[kNumOps] = {70, 10, 5, 5, 10, 0};

  // "status=70,list=10,submit=5,cancel=5,fetch=10,fetch_model=2" — any
  // subset of names, unlisted ops get weight 0; at least one weight must
  // be positive.
  static Result<Mix> Parse(std::string_view text);
  std::string ToString() const;
};

// One scheduled request: fire `op` on connection `conn` at `at_ns` after
// the run starts.
struct ScheduledOp {
  int64_t at_ns = 0;
  Op op = Op::kStatus;
  uint32_t conn = 0;
};

struct ScheduleParams {
  double qps = 100.0;      // aggregate target arrival rate
  double duration_s = 1.0; // schedule horizon
  int connections = 1;     // ops are spread across this many connections
  uint64_t seed = 1;
  Mix mix;
};

// The full arrival schedule: Poisson inter-arrival times at `qps`, op type
// drawn from the mix, connection drawn uniformly — all from one seeded
// generator with an explicitly specified mapping, so the same params
// produce the exact same (timestamp, op, conn) sequence on every run and
// platform. Timestamps are strictly increasing.
std::vector<ScheduledOp> BuildSchedule(const ScheduleParams& params);

struct OpStats {
  int64_t sent = 0;
  int64_t ok = 0;        // expected reply type
  int64_t rejected = 0;  // typed kError the workload expects (NotFound on a
                         // probe id, FailedPrecondition on queue-full /
                         // not-DONE fetch / already-terminal cancel)
  int64_t errors = 0;    // any other kError, or a transport failure
  int64_t timeouts = 0;  // no reply within timeout_ms of the scheduled send
};

struct Report {
  OpStats per_op[kNumOps];
  double wall_s = 0.0;
  double offered_qps = 0.0;   // scheduled ops / horizon
  double achieved_qps = 0.0;  // answered (ok + rejected) ops / wall
  int64_t conns_opened = 0;
  int64_t reconnects = 0;      // churn-driven close+reopen cycles
  int64_t conn_failures = 0;   // transport-level connection losses
  int64_t submitted_jobs = 0;  // acknowledged kSubmitted replies
  // Bucket-interpolated percentiles (ms) from the per-op latency histograms;
  // 0 for an op with no latency samples.
  double p50_ms[kNumOps] = {};
  double p95_ms[kNumOps] = {};
  double p99_ms[kNumOps] = {};
  double p999_ms[kNumOps] = {};

  OpStats Total() const;
  // errors + timeouts over sent (rejections are answered requests).
  double ErrorRate() const;
  // The report as a JSON object (the "ops"/"totals" sections of
  // BENCH_load.json — see docs/benchmarking.md).
  std::string ToJson() const;
};

struct SloBudget {
  double p99_ms = 0.0;          // per-op p99 budget; 0 disables
  double max_error_rate = -1.0; // total error-rate budget; < 0 disables
};

// One human-readable line per violated budget; empty means the gate holds.
// Ops that sent nothing are skipped.
std::vector<std::string> CheckSlo(const Report& report, const SloBudget& slo);

struct ReplayOptions {
  std::string address;  // unix socket path or "tcp:HOST:PORT"
  ScheduleParams schedule;
  double timeout_ms = 1000.0;
  // Close + reopen a connection after this many answered ops on it (0
  // disables). Exercises accept/teardown churn under load.
  int churn_every = 0;
  // Base spec for kSubmit ops; the seed is advanced per submit so jobs
  // are distinct. Keep it tiny — submitted jobs really run.
  core::RunSpec submit_spec;
  // Artifact name kFetchModel ops request. Empty targets "loadgen-seed"
  // (bench/load_replay pre-publishes it in self-host mode); a fetch of a
  // name the server doesn't have is an expected NotFound rejection.
  std::string artifact_name;
};

// Runs the schedule against a live endpoint. Latency samples land in
// per-op LatencyBounds histograms, whose percentiles the returned report
// carries with the error taxonomy, and in the MetricsRegistry histograms
// "load.<op>_ms".
// Fails only on setup errors (cannot connect at start); a connection lost
// mid-run is counted, reopened, and the run continues.
Result<Report> RunReplay(const ReplayOptions& options);

}  // namespace loadgen
}  // namespace server
}  // namespace automc

#endif  // AUTOMC_SERVER_LOADGEN_H_
