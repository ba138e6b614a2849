#ifndef AUTOMC_CORE_RUN_SPEC_H_
#define AUTOMC_CORE_RUN_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "core/automc.h"
#include "search/searcher.h"
#include "store/checkpoint.h"
#include "store/experience_store.h"

namespace automc {
namespace core {

// A self-contained, wire-encodable description of one search run: the model
// family/size, the (synthetic) dataset, the search strategy, and the budget.
// This is the job unit of the automc_serve daemon and the search portion of
// the automc_cli flag surface; RunSearch(spec) reproduces exactly what
//   automc_cli --family F --depth D --dataset S --gamma G --budget B
//              --searcher K --eval-batch E --pretrain P --seed N
// computes, so an outcome fetched from the server can be diffed byte-for-
// byte against a direct in-process run.
struct RunSpec {
  std::string family = "resnet";   // resnet | vgg
  int32_t depth = 20;
  // c10 / c100: the CIFAR-like synthetic tasks the CLI defaults to.
  // tiny: a 3-class test-scale task (fast enough for unit tests and the
  // server throughput bench; same code path end to end).
  std::string dataset = "c10";
  double gamma = 0.3;
  int32_t budget = 12;             // max charged strategy executions
  int32_t eval_batch = 0;          // 0 => $AUTOMC_EVAL_BATCH default
  std::string searcher = "automc"; // automc | random | evolution | rl
  int32_t pretrain = 8;            // base-model training epochs
  uint64_t seed = 1;
};

// Structural validation (known searcher/dataset/family, sane ranges);
// returns InvalidArgument with a precise message otherwise.
Status ValidateRunSpec(const RunSpec& spec);

// One-line human-readable form, e.g. "automc vgg-13 c10 gamma=0.30
// budget=12 seed=7" (job listings, logs).
std::string RunSpecSummary(const RunSpec& spec);

// Versioned little-endian wire encoding. DecodeRunSpec returns false on any
// truncation or an unknown version, leaving *spec unspecified.
void EncodeRunSpec(const RunSpec& spec, ByteWriter* w);
bool DecodeRunSpec(ByteReader* r, RunSpec* spec);

// The CompressionTask a RunSpec denotes (synthetic data branches of the
// CLI: task seeds, split fractions, and model widths match it exactly).
CompressionTask MakeTask(const RunSpec& spec);

// Non-owning run-scoped hooks: persistence (store/checkpointer, see
// docs/persistence.md) and cooperative cancellation. A pending checkpoint
// must already be loaded by the caller; RunSearch resumes it transparently.
struct RunHooks {
  store::ExperienceStore* store = nullptr;
  store::SearchCheckpointer* checkpointer = nullptr;
  search::StopToken* stop = nullptr;
};

// Runs the spec end to end — pretrain the base model, then search with the
// requested strategy — against `task`. Deterministic: a fixed (spec, task)
// yields a bit-identical SearchOutcome at any AUTOMC_THREADS value, with or
// without a (fresh) store attached, interrupted-and-resumed or not.
Result<AutoMCResult> RunSearch(const RunSpec& spec,
                               const CompressionTask& task,
                               const RunHooks& hooks = {});

// Convenience overload: RunSearch(spec, MakeTask(spec), hooks).
Result<AutoMCResult> RunSearch(const RunSpec& spec,
                               const RunHooks& hooks = {});

// Comma-joined strategy indices ("2,7,1" — indices into
// SearchSpace::FullTable1), the scheme encoding stored in artifact
// provenance. ParseSchemeIndices rejects anything but digits and commas.
std::string SchemeIndicesToString(const std::vector<int>& scheme);
Result<std::vector<int>> ParseSchemeIndices(const std::string& text);

// The model a finished job publishes: the winning scheme's model
// (PickWinningScheme) of `result`, a finished RunSearch(spec, task). That is
// result.winner_model when the search still held it; otherwise it is rebuilt
// from result.base_model by applying the scheme's steps in the search's
// context (SearchContext) with the evaluator's per-node seeds
// (search::ApplySchemeStep). Either way it is bit-identical to the model the
// evaluator measured for the scheme. kNotFound on an empty front.
Result<std::shared_ptr<nn::Model>> WinningModel(const RunSpec& spec,
                                                const CompressionTask& task,
                                                const AutoMCResult& result);

// Rebuilds the compressed model of `scheme` in a search of `spec` from
// scratch: MakeTask, PretrainModel, then the same step routine WinningModel
// rebuilds with. An inapplicable strategy (kFailedPrecondition) is the same
// no-op it was during search. This is the determinism contract extended to
// bytes: serialize(MaterializeScheme(spec, winner)) equals the bytes a
// server publishes for that job and `automc_cli --export-model` writes.
Result<std::unique_ptr<nn::Model>> MaterializeScheme(
    const RunSpec& spec, const std::vector<int>& scheme);

}  // namespace core
}  // namespace automc

#endif  // AUTOMC_CORE_RUN_SPEC_H_
