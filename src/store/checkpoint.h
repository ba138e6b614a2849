#ifndef AUTOMC_STORE_CHECKPOINT_H_
#define AUTOMC_STORE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"

namespace automc {
namespace store {

// Atomic, periodic persistence of search state.
//
// A checkpoint is a named-section blob (the search layer contributes
// "searcher" / "evaluator" / "config" sections; the core pipeline adds its
// own). Each write replaces <dir>/checkpoint.bin through
// durable::AtomicWriteFile — a crash or power loss leaves either the old
// checkpoint or the new one, never a torn file. The payload carries a CRC32
// so a damaged file is rejected on load instead of resuming from garbage.
//
// Cadence: searchers call ShouldCheckpoint() once per round; every N-th
// round is persisted (N from Options.every_rounds, else the
// AUTOMC_CHECKPOINT_EVERY environment variable, else 1).
class SearchCheckpointer {
 public:
  struct Options {
    std::string dir;       // checkpoint lives at <dir>/checkpoint.bin
    int every_rounds = 0;  // 0 => $AUTOMC_CHECKPOINT_EVERY, default 1
  };

  explicit SearchCheckpointer(Options options);

  // Loads <dir>/checkpoint.bin for a resume; NotFound when none exists.
  Status LoadPending();
  bool has_pending() const { return !pending_.empty(); }
  // Read access to the loaded sections (empty map when none).
  const std::map<std::string, std::string>& pending() const {
    return pending_;
  }
  // Consumes one section of the pending checkpoint; NotFound if absent.
  Result<std::string> TakePending(const std::string& section);

  // Sticky sections are merged into every Write (e.g. the core pipeline's
  // experience-export cutoff, which must survive into resumed runs).
  void SetStickySection(const std::string& name, std::string blob);

  // Round tick: true when this round's state should be persisted.
  bool ShouldCheckpoint();

  // Atomically replaces the checkpoint with `sections` + sticky sections.
  Status Write(std::map<std::string, std::string> sections);

  std::string checkpoint_path() const;
  int64_t writes() const { return writes_; }

 private:
  Options options_;
  int every_ = 1;
  int64_t round_ = 0;
  int64_t writes_ = 0;
  std::map<std::string, std::string> pending_;
  std::map<std::string, std::string> sticky_;
};

}  // namespace store
}  // namespace automc

#endif  // AUTOMC_STORE_CHECKPOINT_H_
