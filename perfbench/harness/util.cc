#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "harness.h"
#include "tensor/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string OneLine(std::string json) {
  for (char& c : json) {
    if (c == '\n') c = ' ';
  }
  return json;
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonQuote(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  Key(key);
  body_ += JsonNumber(v);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += JsonQuote(v);
  return *this;
}

JsonObject& JsonObject::Nums(const std::string& key,
                             const std::vector<double>& v) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < v.size(); ++i) {
    body_ += (i ? ", " : "") + JsonNumber(v[i]);
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, tracer_->open_, MsSince(tracer_->origin_),
                             0.0});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  SpanRecord& span = tracer_->spans_[static_cast<size_t>(index_)];
  span.end_ms = MsSince(tracer_->origin_);
  tracer_->open_ = span.parent;
}

double Tracer::SumMs(const std::string& name) const {
  double sum = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) sum += s.end_ms - s.start_ms;
  }
  return sum;
}

double Tracer::ChildrenMs(int parent) const {
  double sum = 0.0;
  for (const SpanRecord& s : spans_) {
    if (s.parent == parent) sum += s.end_ms - s.start_ms;
  }
  return sum;
}

std::string Tracer::ToJson() const {
  std::string out = "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out += (i ? ", " : "") + JsonObject()
                                 .Str("name", s.name)
                                 .Int("parent", s.parent)
                                 .Num("start_ms", s.start_ms)
                                 .Num("end_ms", s.end_ms)
                                 .str();
  }
  return out + "]";
}

double SpanOverheadPct(Tracer* tracer, const std::function<void()>& call,
                       double* plain_ms) {
  std::vector<double> plain, spanned;
  for (int block = 0; block < 20; ++block) {
    for (int k = 0; k < 2; ++k) {
      const bool traced = (block + k) % 2 == 1;
      std::vector<double> ms;
      for (int i = 0; i < 20; ++i) {
        const auto t0 = Clock::now();
        if (traced) {
          Tracer::Scope s(tracer, "probe");
          call();
        } else {
          call();
        }
        ms.push_back(MsSince(t0));
      }
      (traced ? spanned : plain).push_back(Median(ms));
    }
  }
  *plain_ms = Median(plain);
  return *plain_ms > 0 ? 100.0 * (Median(spanned) - *plain_ms) / *plain_ms
                       : 0.0;
}

int64_t CounterValue(const std::string& name) {
  return automc::metrics::MetricsRegistry::Global().GetCounter(name).value();
}

double HistogramSum(const std::string& name) {
  return automc::metrics::MetricsRegistry::Global().GetHistogram(name).sum();
}

std::string MachineStamp() {
  namespace simd = automc::tensor::simd;
  const char* mode = "scalar-generic";
  switch (simd::ActiveMode()) {
    case simd::SimdMode::kAvx2:
      mode = "avx2";
      break;
    case simd::SimdMode::kScalarHwFma:
      mode = "scalar-fma";
      break;
    case simd::SimdMode::kScalarGeneric:
      break;
  }
  const char* threads_env = std::getenv("AUTOMC_THREADS");
  const char* tune_cache = std::getenv("AUTOMC_TUNE_CACHE");
  std::string tune_state = "in-memory (probed per process)";
  if (tune_cache != nullptr && *tune_cache != '\0') {
    tune_state = access(tune_cache, R_OK) == 0 ? "file present" : "file absent";
  }
  return JsonObject()
      .Int("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Str("automc_threads_env", threads_env ? threads_env : "(unset)")
      .Int("pool_threads", automc::ThreadPool::Global().threads())
      .Str("simd", mode)
      .Str("tune_cache", tune_state)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .str();
}

namespace {

double VmHwmMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double SelfPeakRssMb() { return VmHwmMb("/proc/self/status"); }

double PeakRssMb(pid_t pid) {
  return VmHwmMb("/proc/" + std::to_string(pid) + "/status");
}

pid_t Spawn(const std::vector<std::string>& argv,
            const std::string& log_path) {
  std::vector<char*> cargv;
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return -1;
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  return pid;
}

void StopChild(pid_t pid, double grace_s) {
  if (pid <= 0) return;
  ::kill(pid, SIGTERM);
  const auto start = Clock::now();
  int status = 0;
  while (true) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || r < 0) return;
    if (SecondsSince(start) > grace_s) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return;
    }
    ::usleep(2000);
  }
}

std::string PseudoRandomBytes(size_t n, uint64_t seed) {
  std::string out(n, '\0');
  uint64_t x = Mix64(seed);
  for (char& c : out) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(x >> 56);
  }
  return out;
}

void Checks::Expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

std::string Checks::ToJson() const {
  std::string list = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    list += (i ? ", " : "") + JsonQuote(failures[i]);
  }
  list += "]";
  return JsonObject()
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("failures", list)
      .str();
}

}  // namespace perfbench
