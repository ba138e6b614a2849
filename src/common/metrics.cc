#include "common/metrics.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/durable.h"
#include "common/logging.h"
#include "common/trace.h"

namespace automc {
namespace metrics {

namespace {

bool EnvDisabled() {
  const char* v = std::getenv("AUTOMC_METRICS");
  if (v == nullptr) return false;
  return std::string(v) == "0" || std::string(v) == "false" ||
         std::string(v) == "off";
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{!EnvDisabled()};
  return enabled;
}

// Escapes a metric name for use as a JSON string literal. Names are plain
// dotted identifiers in practice; this keeps the export valid regardless.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// 12 significant digits: the bytes of printf's "%.12g" (and of an ostream
// at precision 12), which std::to_chars produces without parsing a format.
std::string JsonDouble(double v) {
  // JSON has no inf/nan literals; clamp to null-safe sentinels.
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  if (std::isnan(v)) return "0";
  char buf[32];
  char* end =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 12)
          .ptr;
  return std::string(buf, end);
}

}  // namespace

bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }
void SetEnabled(bool on) {
  EnabledFlag().store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultBounds();
  std::sort(bounds_.begin(), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
  for (double bound : bounds_) {
    bucket_json_.push_back("{\"le\": " + JsonDouble(bound) + ", \"count\": ");
  }
  bucket_json_.push_back("{\"le\": \"inf\", \"count\": ");
}

std::vector<double> Histogram::DefaultBounds() {
  std::vector<double> bounds;
  for (double decade = 1e-3; decade < 1e5; decade *= 10.0) {
    bounds.push_back(decade);
    bounds.push_back(2.5 * decade);
    bounds.push_back(5.0 * decade);
  }
  return bounds;  // 1e-3 ... 5e4
}

std::vector<double> Histogram::LatencyBounds() {
  static const double kLadder[] = {1.0, 1.25, 1.6, 2.0, 2.5,
                                   3.2, 4.0,  5.0, 6.3, 8.0};
  std::vector<double> bounds;
  for (double decade = 1e-2; decade < 1e5; decade *= 10.0) {
    for (double step : kLadder) bounds.push_back(step * decade);
  }
  return bounds;  // 1e-2 ... 8e4
}

double Histogram::Percentile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double rank = q * static_cast<double>(count_);
  int64_t below = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    if (rank <= static_cast<double>(below + counts_[i]) ||
        below + counts_[i] == count_) {
      // The open-ended edge buckets have no finite bound on one side; the
      // observed extremes are the tightest statement available there.
      double lo = i > 0 ? bounds_[i - 1] : min_;
      double hi = i < bounds_.size() ? bounds_[i] : max_;
      lo = std::max(lo, min_);
      hi = std::min(hi, max_);
      if (lo > hi) return hi;
      const double frac =
          (rank - static_cast<double>(below)) / static_cast<double>(counts_[i]);
      return lo + std::min(std::max(frac, 0.0), 1.0) * (hi - lo);
    }
    below += counts_[i];
  }
  return max_;
}

void Histogram::Observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t b = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  ++counts_[b];
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
}

int64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}
double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}
double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}
double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}
double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}
std::vector<int64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counts_;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_[name];
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_[name];
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  return histograms_.try_emplace(name, std::move(bounds)).first->second;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << c.value();
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name)
       << "\": " << JsonDouble(g.value());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "" : ",") << "\n    \"" << JsonEscape(name) << "\": {"
       << "\"count\": " << h.count() << ", \"sum\": " << JsonDouble(h.sum())
       << ", \"min\": " << JsonDouble(h.min())
       << ", \"max\": " << JsonDouble(h.max())
       << ", \"mean\": " << JsonDouble(h.mean()) << ", \"buckets\": [";
    const std::vector<int64_t> counts = h.bucket_counts();
    for (size_t i = 0; i < counts.size(); ++i) {
      os << (i ? ", " : "") << h.bucket_json_[i] << counts[i] << "}";
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"trace\": " << trace::ToJson()
     << "\n}\n";
  return os.str();
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  return durable::AtomicWriteFile(path, ToJson()).ok();
}

bool MetricsRegistry::DumpIfConfigured() const {
  const char* path = std::getenv("AUTOMC_METRICS_OUT");
  if (path == nullptr || *path == '\0') return false;
  bool ok = WriteJson(path);
  if (!ok) {
    AUTOMC_LOG(Warning) << "failed to write metrics to AUTOMC_METRICS_OUT="
                        << path;
  }
  return ok;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.value_.store(0);
  for (auto& [name, g] : gauges_) g.value_.store(0.0);
  for (auto& [name, h] : histograms_) {
    std::lock_guard<std::mutex> hist_lock(h.mu_);
    std::fill(h.counts_.begin(), h.counts_.end(), 0);
    h.count_ = 0;
    h.sum_ = h.min_ = h.max_ = 0.0;
  }
}

}  // namespace metrics
}  // namespace automc
