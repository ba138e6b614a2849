// Shared pieces of the perfbench harness: run arguments, clocks, a small
// JSON writer, the benchmark's own span recorder, metric-registry reads,
// the machine/config stamp, and child-process helpers.
//
// The harness measures the program from outside: it times calls into each
// layer's public functions and reads counters the program already records.
// It prints one JSON object of raw measurements on its last stdout line;
// perfbench/run.py turns that into the benchmark's metrics.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start);
double SecondsSince(Clock::time_point start);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  // built automc_serve (serve and fleet-jobs)
  std::string workdir;    // run directory inside the checkout
  Clock::time_point start = Clock::now();
};

// splitmix64: derives every input of a run from the workload seed.
uint64_t Mix64(uint64_t x);

double Median(std::vector<double> v);

// Minimal JSON object writer; values are emitted in insertion order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, int64_t v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Nums(const std::string& key, const std::vector<double>& v);
  // `json` must already be valid JSON text.
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

// `json` with its newlines turned into spaces, for embedding as one line.
std::string OneLine(std::string json);

// The benchmark's own spans: name, start, end and parent, kept in memory
// and summarised at the end. Only traced runs create one.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    int parent = -1;  // index into spans(), -1 for a root
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Sum of the durations of every span called `name`.
  double SumMs(const std::string& name) const;
  // Sum of the durations of the direct children of span `parent`.
  double ChildrenMs(int parent) const;
  // JSON array with name, parent, start and end of every span.
  std::string ToJson() const;

 private:
  Clock::time_point origin_ = Clock::now();
  int open_ = -1;
  std::vector<SpanRecord> spans_;
};

// Tracing cost on one client call: interleaved blocks of the call with and
// without a span around it, alternating which goes first. Returns the
// percentage the span adds to the call's median time; *plain_ms receives
// the untraced median.
double SpanOverheadPct(Tracer* tracer, const std::function<void()>& call,
                       double* plain_ms);

// In-process metric registry reads (lookup-or-create, so absent names read
// as zero).
int64_t CounterValue(const std::string& name);
double HistogramSum(const std::string& name);

// nproc, AUTOMC_THREADS and the pool size in use, SIMD tier, tune-cache
// state and build type, as a JSON object.
std::string MachineStamp();

// Peak resident set of this process / of `pid`, in MiB (VmHWM).
double SelfPeakRssMb();
double PeakRssMb(pid_t pid);

// fork+exec of `argv` with stdout and stderr appended to `log_path`.
// Returns the child pid, or -1.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path);
// SIGTERM, then SIGKILL after `grace_s`; always reaps.
void StopChild(pid_t pid, double grace_s);

// Deterministic pseudo-random bytes.
std::string PseudoRandomBytes(size_t n, uint64_t seed);

// Output checks: every check is one attempted operation.
struct Checks {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  void Expect(bool ok, const std::string& what);
  std::string ToJson() const;
};

int RunSearchWorkload(const Args& args);
int RunServeWorkload(const Args& args);
int RunFleetWorkload(const Args& args);
// Traced recomposition identity on one small spec (used by the helper
// tests): prints {"identical": bool} and exits 0 when identical.
int RunRecomposeSelfTest(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
