#ifndef AUTOMC_SEARCH_EVALUATOR_H_
#define AUTOMC_SEARCH_EVALUATOR_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "compress/compressor.h"
#include "nn/model.h"
#include "search/search_space.h"
#include "store/experience_store.h"

namespace automc {
namespace search {

// Measurements of one scheme node, relative to the uncompressed base model.
struct EvalPoint {
  double acc = 0.0;
  int64_t params = 0;
  int64_t flops = 0;
  double ar = 0.0;  // accuracy increase rate vs base
  double pr = 0.0;  // parameter reduction rate vs base
  double fr = 0.0;  // FLOPs reduction rate vs base
};

// Result of SchemeEvaluator::EvaluateBatch: parallel arrays over the
// *evaluated* prefix of the submitted batch (the charged-budget truncation
// can make them shorter than the input).
struct BatchEval {
  std::vector<EvalPoint> points;
  // Point of each scheme's immediate prefix (what Evaluate's `parent_out`
  // would have produced).
  std::vector<EvalPoint> parents;
  // charged_executions() right after scheme i committed — what a serial
  // Evaluate loop would have observed between iterations i and i+1.
  std::vector<int64_t> charged_after;
};

// Evaluates compression schemes (strategy index sequences) against one task.
//
// The scheme space is a tree, and the evaluator memoizes two things at every
// node it has visited:
//   * the compressed model snapshot (expensive, LRU-evicted, `cache_`) —
//     evaluating "seq -> s" right after "seq" costs one strategy execution;
//   * the measured EvalPoint (tiny, never evicted, `points_`) — re-evaluating
//     any scheme this run already measured is free, even after its model
//     snapshot was evicted.
// The point index also defines the budget unit: `charged_executions()` counts
// *novel* points this run produced, whether measured by running a compressor
// or served from an attached ExperienceStore. Searchers spend budget on
// charged executions, so a warm-started rerun replays the exact same control
// flow (and terminates) while `strategy_executions()` — real compressor runs
// — stays at zero.
class SchemeEvaluator {
 public:
  struct Options {
    // Cached model snapshots beyond the root (LRU-evicted).
    int max_cached_models = 128;
  };

  // `base_model` must be pretrained; it is cloned, never mutated. `ctx`
  // carries the (possibly subsampled) training data used by strategies.
  SchemeEvaluator(const SearchSpace* space, nn::Model* base_model,
                  const compress::CompressionContext& ctx, Options options);

  // Evaluates the scheme, reusing the deepest cached prefix. When
  // `parent_out` is non-null it receives the point of the scheme's immediate
  // prefix (used to derive AR_step / PR_step for F_mo training).
  Result<EvalPoint> Evaluate(const std::vector<int>& scheme,
                             EvalPoint* parent_out = nullptr);

  // Evaluates a round of candidate schemes, fanning independent subtrees out
  // across the global thread pool, with results bit-identical to the serial
  // loop
  //     for (s : schemes) if (charged_executions() < charged_limit) Evaluate(s);
  // at any AUTOMC_THREADS value. Three phases:
  //   1. plan (serial): predict each scheme's novel points, truncate the
  //      batch at `charged_limit` (< 0 disables), and group schemes by their
  //      deepest shared *unmaterialized* prefix — schemes that would execute
  //      overlapping tree nodes land in one serial chain so every strategy
  //      executes at most once;
  //   2. speculate (parallel): each chain clones its model snapshot (an
  //      O(1) copy-on-write alias — bytes are copied only for the layers a
  //      strategy actually rewrites) and executes its strategies; per-node
  //      deterministic seeding makes every node's model and point a pure
  //      function of the scheme prefix, so speculative results are exact
  //      regardless of commit order;
  //   3. commit (serial, ascending submission order): replay the serial
  //      Evaluate algorithm, consuming speculative nodes instead of running
  //      compressors. All shared-state mutation (LRU ticks and evictions,
  //      point charging, store appends, counters) happens here, which is what
  //      makes cache contents, eviction order, charged-execution accounting,
  //      and store bytes independent of the thread count. A mispredicted
  //      node (e.g. evicted mid-commit) falls back to inline execution; a
  //      worker error is re-hit serially so it surfaces at the same scheme
  //      index a serial loop would have reported.
  // On error, earlier schemes have already committed (exactly like a serial
  // loop that failed partway); the batch's results are not returned.
  Result<BatchEval> EvaluateBatch(const std::vector<std::vector<int>>& schemes,
                                  int64_t charged_limit = -1);

  // Connects a persistent evaluation cache. Binds the store to this
  // evaluator's search space, and to its base model together with its
  // compression context — records written under a different space, model or
  // context can never be served here — and appends the base-model record so
  // depth-1 store records have a parent. After attachment, Evaluate consults
  // the store before executing strategies and appends every fresh
  // measurement.
  Status AttachStore(store::ExperienceStore* experience_store);
  store::ExperienceStore* experience_store() const { return store_; }

  // Content fingerprints used to key store records. Space covers every
  // strategy's rendered spec; model covers the architecture spec, weight
  // precision, and the raw bytes of every pretrained parameter; context
  // covers what else a measurement depends on: the lr, epoch base, batch
  // size and seed, and the bytes of the training and test splits. The
  // store's model key is the model fingerprint folded with the context's.
  static uint64_t SpaceFingerprint(const SearchSpace& space);
  static uint64_t ModelFingerprint(nn::Model* model);
  static uint64_t ContextFingerprint(const compress::CompressionContext& ctx);

  // The model snapshot of `scheme` when the cache still holds it, as an O(1)
  // copy-on-write clone; null when this run never executed the scheme (its
  // points came from a store or a restored checkpoint) or its snapshot was
  // evicted. Reads only: the LRU clock and CacheDigest do not move.
  std::unique_ptr<nn::Model> CachedModel(const std::vector<int>& scheme) const;

  // Checkpoint support: the point index + charged-execution count, i.e.
  // everything a resumed process needs to replay the remaining search with
  // identical control flow. Restore validates that the snapshot's base point
  // matches this evaluator's (catching checkpoint-vs-model mismatches).
  void SnapshotState(ByteWriter* w) const;
  Status RestoreState(std::string_view blob);

  const EvalPoint& base_point() const { return base_point_; }
  // Novel points this run produced — the search budget unit. Store-served
  // points charge on first sight per run, real executions likewise.
  int64_t charged_executions() const { return charged_executions_; }
  // Real compressor runs (zero for a fully warm-started rerun).
  int64_t strategy_executions() const { return strategy_executions_; }
  int64_t cache_hits() const { return cache_hits_; }
  // Points served from the attached store instead of being measured.
  int64_t store_hits() const { return store_hits_; }

  // Order-sensitive digest of the model cache (keys, points, LRU clock per
  // entry). Two evaluators with equal digests would evict identically from
  // here on; the batch-equivalence tests compare it against a serial run.
  uint64_t CacheDigest() const;

 private:
  struct CacheEntry {
    std::unique_ptr<nn::Model> model;
    EvalPoint point;
    int64_t last_used = 0;
  };

  // One speculatively executed tree node, produced by a worker chain and
  // consumed (at most once) by the serial commit phase.
  struct SpecNode {
    std::unique_ptr<nn::Model> model;
    EvalPoint point;
    // True when the worker measured the point itself (vs reusing a known
    // point or a store record, which the commit re-derives with the serial
    // code path so counters stay exact).
    bool measured = false;
  };
  using SpecMap = std::map<std::string, SpecNode, std::less<>>;

  // Cache keys are fixed-width binary: 4 little-endian bytes per strategy
  // index. A prefix of the scheme is therefore a byte prefix of the full
  // key, so Evaluate builds the key once and probes every prefix length
  // with an allocation-free string_view (the map comparator is transparent).
  static std::string Key(const std::vector<int>& scheme);
  static std::string_view KeyPrefix(const std::string& key, size_t length) {
    return std::string_view(key).substr(0, 4 * length);
  }
  EvalPoint MeasureModel(nn::Model* model) const;
  // Phase-2 worker body of EvaluateBatch: executes one chain's schemes in
  // submission order against private model clones, emitting (key, SpecNode)
  // pairs. Reads shared state (cache_, points_, the store index via Peek)
  // but never mutates it — the commit phase owns all mutation.
  void SpeculateChain(const std::vector<const std::vector<int>*>& members,
                      std::vector<std::pair<std::string, SpecNode>>* out) const;
  // The serial evaluation algorithm. With `spec` non-null, path-B steps
  // whose node has a speculative model adopt it instead of running the
  // compressor; every observable side effect is unchanged either way.
  Result<EvalPoint> EvaluateInternal(const std::vector<int>& scheme,
                                     EvalPoint* parent_out, SpecMap* spec);
  void Insert(std::string_view key, std::unique_ptr<nn::Model> model,
              const EvalPoint& point);
  void MaybeEvict();
  // Registers `point` under `key`, charging budget iff it is new this run.
  void RecordPoint(std::string_view key, const EvalPoint& point);
  // Durably persists the point for `scheme` when a store is attached.
  Status PersistPoint(const std::vector<int>& scheme, const EvalPoint& point);

  const SearchSpace* space_;
  nn::Model* base_model_;
  compress::CompressionContext ctx_;
  Options options_;
  EvalPoint base_point_;
  std::map<std::string, CacheEntry, std::less<>> cache_;
  // Every point measured or store-served this run, keyed like cache_ but
  // never evicted (points are ~48 bytes; model snapshots own megabytes of
  // parameters, though cached clones of a live model cost O(1) until one
  // side diverges — tensors are copy-on-write).
  // Keys form prefix-closed chains: a point's parent prefix is always
  // present. models in cache_ are a subset of points_ keys.
  std::map<std::string, EvalPoint, std::less<>> points_;
  store::ExperienceStore* store_ = nullptr;
  int64_t charged_executions_ = 0;
  int64_t strategy_executions_ = 0;
  int64_t cache_hits_ = 0;
  int64_t store_hits_ = 0;
  int64_t clock_ = 0;
};

// Executes step `depth` (0-based) of a scheme, strategy `strategy` of
// `space`, on `model` in place, exactly as the evaluator does: under `ctx`
// with its seed replaced by the per-node seed, a function of (ctx.seed,
// strategy, depth) alone, so every scheme node's model is a pure function of
// its prefix. A strategy inapplicable to the model's state
// (kFailedPrecondition, e.g. pruning after re-decomposition hit its floor)
// is a no-op.
Status ApplySchemeStep(const SearchSpace& space, int strategy, size_t depth,
                       const compress::CompressionContext& ctx,
                       nn::Model* model);

}  // namespace search
}  // namespace automc

#endif  // AUTOMC_SEARCH_EVALUATOR_H_
