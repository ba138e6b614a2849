#include "common/logging.h"

#include <atomic>

namespace automc {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kInfo};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= GetLogLevel()) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (!enabled_) return;
  // One write per line, so lines logged from concurrent threads never
  // interleave.
  stream_ << '\n';
  std::cerr << stream_.str();
}

}  // namespace internal
}  // namespace automc
