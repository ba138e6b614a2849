#include "store/checkpoint.h"

#include <cstdlib>
#include <string_view>

#include "common/bytes.h"
#include "common/durable.h"
#include "common/metrics.h"

namespace automc {
namespace store {

namespace {

// The sealed file's header: magic "AMCK", then u32 version 1.
constexpr std::string_view kHeader("AMCK\1\0\0\0", 8);

int EveryFromEnv() {
  const char* env = std::getenv("AUTOMC_CHECKPOINT_EVERY");
  if (env == nullptr || *env == '\0') return 1;
  int v = std::atoi(env);
  return v > 0 ? v : 1;
}

}  // namespace

SearchCheckpointer::SearchCheckpointer(Options options)
    : options_(std::move(options)) {
  every_ = options_.every_rounds > 0 ? options_.every_rounds : EveryFromEnv();
}

std::string SearchCheckpointer::checkpoint_path() const {
  return options_.dir + "/checkpoint.bin";
}

Status SearchCheckpointer::LoadPending() {
  // kNotFound: no checkpoint yet.
  AUTOMC_ASSIGN_OR_RETURN(std::string body,
                          durable::ReadSealedFile(checkpoint_path(), kHeader));
  ByteReader r(body);
  uint32_t count = 0;
  if (!r.U32(&count)) return Status::InvalidArgument("truncated checkpoint");
  std::map<std::string, std::string> sections;
  for (uint32_t i = 0; i < count; ++i) {
    std::string name, blob;
    if (!r.Str(&name) || !r.Str(&blob)) {
      return Status::InvalidArgument("truncated checkpoint section");
    }
    sections[std::move(name)] = std::move(blob);
  }
  pending_ = std::move(sections);
  return Status::OK();
}

Result<std::string> SearchCheckpointer::TakePending(
    const std::string& section) {
  auto it = pending_.find(section);
  if (it == pending_.end()) {
    return Status::NotFound("checkpoint has no '" + section + "' section");
  }
  std::string blob = std::move(it->second);
  pending_.erase(it);
  return blob;
}

void SearchCheckpointer::SetStickySection(const std::string& name,
                                          std::string blob) {
  sticky_[name] = std::move(blob);
}

bool SearchCheckpointer::ShouldCheckpoint() {
  ++round_;
  return round_ % every_ == 0;
}

Status SearchCheckpointer::Write(std::map<std::string, std::string> sections) {
  for (const auto& [name, blob] : sticky_) sections[name] = blob;

  ByteWriter body;
  body.U32(static_cast<uint32_t>(sections.size()));
  for (const auto& [name, blob] : sections) {
    body.Str(name);
    body.Str(blob);
  }

  AUTOMC_RETURN_IF_ERROR(
      durable::WriteSealedFile(checkpoint_path(), kHeader, body.str()));
  ++writes_;
  AUTOMC_METRIC_COUNT("checkpoint.writes");
  return Status::OK();
}

}  // namespace store
}  // namespace automc
