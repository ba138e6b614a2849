#ifndef AUTOMC_COMMON_METRICS_H_
#define AUTOMC_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace automc {
namespace metrics {

// Process-wide observability registry. Everything that defines the search
// budget reports here: strategy executions, prefix-cache behaviour, training
// epochs, per-method compression cost. Exported as JSON (ToJson) so bench
// runs can record trajectories; the path comes from AUTOMC_METRICS_OUT.
//
// Naming convention: "<subsystem>.<noun>" for counters and gauges,
// "<subsystem>.<noun>_ms" for wall-time histograms (milliseconds).
//
// Recording contract: code records through the AUTOMC_METRIC_* macros below
// and AUTOMC_SCOPED_TIMER (trace.h), whose names must be string literals.
// Each call site looks its metric up once and keeps the reference, which
// stays valid for the life of the process: Reset() zeroes metrics in place
// and never frees one. While metrics are off the macros create nothing.
//
// Two disable levels:
//   * runtime  — SetEnabled(false) or AUTOMC_METRICS=0 in the environment;
//                every macro site then costs one branch.
//   * compile  — building with -DAUTOMC_DISABLE_METRICS compiles the macros
//                out; their arguments are never evaluated.

// Runtime kill switch. Initialized once from AUTOMC_METRICS ("0"/"false"
// disable); defaults to enabled.
bool Enabled();
void SetEnabled(bool on);

// Monotonically increasing integer metric.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<int64_t> value_{0};
};

// Last-value-wins floating-point metric.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: `bounds` are inclusive upper edges; one implicit
// overflow bucket collects everything above the last edge.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  int64_t count() const;
  double sum() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  double mean() const;
  // Bucket-interpolated quantile estimate for q in [0, 1]: locates the
  // bucket holding the q-th ranked observation and interpolates linearly
  // inside it (the edge buckets use the observed min/max instead of the
  // open bounds). Always within [min(), max()]; 0 when empty. Resolution
  // is the bucket width, so pick bounds to match the quantity measured —
  // the load-replay harness uses LatencyBounds().
  double Percentile(double q) const;
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<int64_t> bucket_counts() const;  // bounds().size() + 1 entries

  // Decade ladder (1 / 2.5 / 5) from 1e-3 to 6e4 — covers both millisecond
  // timings and loss-scale observations.
  static std::vector<double> DefaultBounds();
  // Finer ladder (10 edges per decade, 1e-2 to 1e5) for percentile-gated
  // latency histograms, where DefaultBounds' 3-per-decade resolution would
  // smear a p99 across half a decade.
  static std::vector<double> LatencyBounds();

 private:
  friend class MetricsRegistry;
  mutable std::mutex mu_;
  std::vector<double> bounds_;
  // Each bucket's `{"le": <bound>, "count": ` export prefix. The bounds
  // never change, so they are formatted once, not on every export.
  std::vector<std::string> bucket_json_;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  // Lookup-or-create by name. Returned references stay valid for the life
  // of the process.
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  // `bounds` is honoured only on first creation; empty means DefaultBounds().
  Histogram& GetHistogram(const std::string& name,
                          std::vector<double> bounds = {});

  // Snapshot of all metrics (plus any completed trace roots) as one JSON
  // object: {"counters":{...},"gauges":{...},"histograms":{...},"trace":[..]}.
  std::string ToJson() const;

  // Replaces `path` with ToJson() (durable::AtomicWriteFile); false on I/O
  // failure.
  bool WriteJson(const std::string& path) const;

  // Writes ToJson() to $AUTOMC_METRICS_OUT when that is set and non-empty.
  // Returns true only if a file was actually written.
  bool DumpIfConfigured() const;

  // Zeroes every registered metric in place (test isolation). Names,
  // histogram bounds and every reference handed out survive.
  void Reset();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  // Node-based maps: an entry never moves once created.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace metrics
}  // namespace automc

#ifndef AUTOMC_DISABLE_METRICS
#define AUTOMC_METRICS_ON_ ::automc::metrics::Enabled()
#else
#define AUTOMC_METRICS_ON_ false
#endif

// The registry metric named by the string literal `name` ("" name rejects
// anything else), looked up once per call site; null while metrics are off,
// so that nothing is created.
#define AUTOMC_METRIC_SITE_(getter, name)                             \
  (AUTOMC_METRICS_ON_                                                 \
       ? [] {                                                         \
           static auto& automc_metric =                               \
               ::automc::metrics::MetricsRegistry::Global().getter(   \
                   "" name);                                          \
           return &automc_metric;                                     \
         }()                                                          \
       : nullptr)

#define AUTOMC_METRIC_CALL_(getter, name, call)                       \
  do {                                                                \
    if (auto* automc_metric_ptr = AUTOMC_METRIC_SITE_(getter, name))  \
      automc_metric_ptr->call;                                        \
  } while (0)

// AUTOMC_METRIC_COUNT(name) adds 1; AUTOMC_METRIC_COUNT(name, delta) adds
// delta.
#define AUTOMC_METRIC_COUNT(name, ...) \
  AUTOMC_METRIC_CALL_(GetCounter, name, Add(__VA_ARGS__))
#define AUTOMC_METRIC_GAUGE(name, value) \
  AUTOMC_METRIC_CALL_(GetGauge, name, Set(value))
#define AUTOMC_METRIC_OBSERVE(name, value) \
  AUTOMC_METRIC_CALL_(GetHistogram, name, Observe(value))

#endif  // AUTOMC_COMMON_METRICS_H_
