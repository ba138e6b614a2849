#include "search/searcher.h"

#include <algorithm>
#include <cstdlib>
#include <map>

#include "common/metrics.h"
#include "search/pareto.h"
#include "search/snapshot_util.h"

namespace automc {
namespace search {

int DefaultEvalBatch() {
  static const int value = [] {
    const char* env = std::getenv("AUTOMC_EVAL_BATCH");
    if (env != nullptr && *env != '\0') {
      int v = std::atoi(env);
      if (v >= 1) return v;
    }
    return 4;
  }();
  return value;
}

void Archive::Record(const std::vector<int>& scheme, const EvalPoint& point,
                     int executions_so_far) {
  schemes_.push_back(scheme);
  points_.push_back(point);
  best_any_acc_ = std::max(best_any_acc_, point.acc);
  if (point.pr >= gamma_) {
    best_feasible_acc_ = std::max(best_feasible_acc_, point.acc);
  }
  HistoryPoint h;
  h.executions = executions_so_far;
  h.best_acc = best_feasible_acc_;
  h.best_acc_any = best_any_acc_;
  history_.push_back(h);
}

size_t Archive::ParetoFrontSize() const {
  return Finalize(0).pareto_schemes.size();
}

SearchOutcome Archive::Finalize(int executions) const {
  SearchOutcome out;
  out.history = history_;
  out.executions = executions;

  // Pareto set over feasible schemes: maximize accuracy, minimize params.
  std::vector<size_t> feasible;
  for (size_t i = 0; i < points_.size(); ++i) {
    if (points_[i].pr >= gamma_) feasible.push_back(i);
  }
  if (feasible.empty()) {
    // No scheme met gamma; fall back to the full set so callers still get
    // the best available trade-offs.
    for (size_t i = 0; i < points_.size(); ++i) feasible.push_back(i);
  }
  std::vector<std::pair<double, double>> objectives;
  objectives.reserve(feasible.size());
  for (size_t i : feasible) {
    objectives.push_back(
        {points_[i].acc, -static_cast<double>(points_[i].params)});
  }
  for (size_t fi : ParetoFrontIndices(objectives)) {
    size_t i = feasible[fi];
    // Skip duplicates (same scheme evaluated twice).
    bool dup = false;
    for (const auto& s : out.pareto_schemes) {
      if (s == schemes_[i]) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    out.pareto_schemes.push_back(schemes_[i]);
    out.pareto_points.push_back(points_[i]);
  }
  return out;
}

void Archive::Snapshot(ByteWriter* w) const {
  w->U64(schemes_.size());
  for (size_t i = 0; i < schemes_.size(); ++i) {
    w->Ints(schemes_[i]);
    WritePoint(w, points_[i]);
  }
  w->U64(history_.size());
  for (const HistoryPoint& h : history_) {
    w->I32(h.executions);
    w->F64(h.best_acc);
    w->F64(h.best_acc_any);
  }
  w->F64(best_feasible_acc_);
  w->F64(best_any_acc_);
}

bool Archive::Restore(ByteReader* r) {
  // Append as entries decode: a declared count must not size memory.
  uint64_t n = 0;
  if (!r->U64(&n)) return false;
  std::vector<std::vector<int>> schemes;
  std::vector<EvalPoint> points;
  for (uint64_t i = 0; i < n; ++i) {
    if (!r->Ints(&schemes.emplace_back()) ||
        !ReadPoint(r, &points.emplace_back())) {
      return false;
    }
  }
  uint64_t hn = 0;
  if (!r->U64(&hn)) return false;
  std::vector<HistoryPoint> history;
  for (uint64_t i = 0; i < hn; ++i) {
    HistoryPoint& h = history.emplace_back();
    if (!r->I32(&h.executions) || !r->F64(&h.best_acc) ||
        !r->F64(&h.best_acc_any)) {
      return false;
    }
  }
  double feasible = 0.0, any = 0.0;
  if (!r->F64(&feasible) || !r->F64(&any)) return false;
  schemes_ = std::move(schemes);
  points_ = std::move(points);
  history_ = std::move(history);
  best_feasible_acc_ = feasible;
  best_any_acc_ = any;
  return true;
}

namespace {

// Identity blob stored alongside every checkpoint: a resume must use the
// same searcher and an identical budget/length/gamma/seed, or the replayed
// control flow would not match the crashed run's.
std::string ConfigBlob(const Searcher& searcher, const SearchConfig& config) {
  ByteWriter w;
  w.Str(searcher.Name());
  w.I32(config.max_strategy_executions);
  w.I32(config.max_length);
  w.F64(config.gamma);
  w.U64(config.seed);
  // The round size shapes the evolutionary/RL candidate streams, so a
  // resume under a different eval_batch would silently diverge.
  w.I32(config.eval_batch);
  return w.Take();
}

}  // namespace

Result<bool> MaybeRestoreSearch(Searcher* searcher, SchemeEvaluator* evaluator,
                                const SearchConfig& config) {
  store::SearchCheckpointer* cp = config.checkpointer;
  if (cp == nullptr || !cp->has_pending()) return false;
  AUTOMC_ASSIGN_OR_RETURN(std::string cfg, cp->TakePending("config"));
  if (cfg != ConfigBlob(*searcher, config)) {
    return Status::FailedPrecondition(
        "checkpoint was written by a different searcher or search config; "
        "resume with the original settings");
  }
  AUTOMC_ASSIGN_OR_RETURN(std::string eval_blob, cp->TakePending("evaluator"));
  AUTOMC_RETURN_IF_ERROR(evaluator->RestoreState(eval_blob));
  AUTOMC_ASSIGN_OR_RETURN(std::string blob, cp->TakePending("searcher"));
  AUTOMC_RETURN_IF_ERROR(searcher->Restore(blob));
  AUTOMC_METRIC_COUNT("checkpoint.restores");
  return true;
}

namespace {

Status WriteCheckpoint(Searcher* searcher, SchemeEvaluator* evaluator,
                       const SearchConfig& config) {
  std::map<std::string, std::string> sections;
  sections["config"] = ConfigBlob(*searcher, config);
  ByteWriter ew;
  evaluator->SnapshotState(&ew);
  sections["evaluator"] = ew.Take();
  std::string sblob;
  AUTOMC_RETURN_IF_ERROR(searcher->Snapshot(&sblob));
  sections["searcher"] = std::move(sblob);
  return config.checkpointer->Write(std::move(sections));
}

}  // namespace

Status CheckpointRound(Searcher* searcher, SchemeEvaluator* evaluator,
                       const SearchConfig& config) {
  store::SearchCheckpointer* cp = config.checkpointer;
  if (cp == nullptr || !cp->ShouldCheckpoint()) return Status::OK();
  return WriteCheckpoint(searcher, evaluator, config);
}

Status CheckStop(Searcher* searcher, SchemeEvaluator* evaluator,
                 const SearchConfig& config) {
  if (config.stop == nullptr || !config.stop->stop_requested()) {
    return Status::OK();
  }
  // Persist the state as of the end of the previous round: nothing has
  // mutated since, so a resume replays the remaining rounds exactly as an
  // uninterrupted run would have executed them.
  if (config.checkpointer != nullptr) {
    AUTOMC_RETURN_IF_ERROR(WriteCheckpoint(searcher, evaluator, config));
  }
  AUTOMC_METRIC_COUNT("search.stops");
  return Status::Cancelled(searcher->Name() + " search stopped");
}

}  // namespace search
}  // namespace automc
