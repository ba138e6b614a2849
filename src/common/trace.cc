#include "common/trace.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <utility>

namespace automc {
namespace trace {

namespace {

// Completed root spans beyond this are dropped oldest-first so long bench
// runs cannot grow without bound.
constexpr size_t kMaxRoots = 256;

bool EnvEnabled() {
  const char* v = std::getenv("AUTOMC_TRACE");
  if (v == nullptr) return false;
  return std::string(v) == "1" || std::string(v) == "true" ||
         std::string(v) == "on";
}

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> enabled{EnvEnabled()};
  return enabled;
}

std::mutex& RootsMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::vector<Span>& RootsStorage() {
  static std::vector<Span>* roots = new std::vector<Span>();
  return *roots;
}

// Per-thread stack of spans currently open on this thread. Entries own
// their (already-completed) children; the span itself completes when its
// ScopedTimer is destroyed.
thread_local std::vector<Span> tl_open_spans;

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool Enabled() { return EnabledFlag().load(std::memory_order_relaxed); }
void SetEnabled(bool on) {
  EnabledFlag().store(on, std::memory_order_relaxed);
}

std::vector<Span> Roots() {
  std::lock_guard<std::mutex> lock(RootsMutex());
  return RootsStorage();
}

void ClearRoots() {
  std::lock_guard<std::mutex> lock(RootsMutex());
  RootsStorage().clear();
}

std::string SpanToJson(const Span& span) {
  std::ostringstream os;
  os.precision(6);
  os << "{\"name\": \"" << JsonEscape(span.name) << "\", \"ms\": " << span.ms;
  if (!span.children.empty()) {
    os << ", \"children\": [";
    for (size_t i = 0; i < span.children.size(); ++i) {
      if (i) os << ", ";
      os << SpanToJson(span.children[i]);
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::string ToJson() {
  std::vector<Span> roots = Roots();
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < roots.size(); ++i) {
    if (i) os << ", ";
    os << SpanToJson(roots[i]);
  }
  os << "]";
  return os.str();
}

ScopedTimer::ScopedTimer(const char* name, metrics::Histogram* histogram)
    : histogram_(histogram),
      start_(std::chrono::steady_clock::now()),
      tracing_(Enabled()) {
  if (tracing_) {
    Span span;
    span.name = name;
    tl_open_spans.push_back(std::move(span));
  }
}

ScopedTimer::~ScopedTimer() {
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
  if (histogram_ != nullptr) histogram_->Observe(ms);
  if (!tracing_ || tl_open_spans.empty()) return;
  Span span = std::move(tl_open_spans.back());
  tl_open_spans.pop_back();
  span.ms = ms;
  if (!tl_open_spans.empty()) {
    tl_open_spans.back().children.push_back(std::move(span));
    return;
  }
  std::lock_guard<std::mutex> lock(RootsMutex());
  std::vector<Span>& roots = RootsStorage();
  if (roots.size() >= kMaxRoots) roots.erase(roots.begin());
  roots.push_back(std::move(span));
}

}  // namespace trace
}  // namespace automc
