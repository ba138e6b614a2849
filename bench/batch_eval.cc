// Benchmarks SchemeEvaluator::EvaluateBatch against the serial Evaluate
// loop on one 16-candidate round of mostly-disjoint schemes, asserting
// bit-identical results before reporting timings. Emits one JSON object on
// stdout; scripts/bench.sh runs it at AUTOMC_THREADS=1 and 4 and merges the
// two into BENCH_eval.json.
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "nn/trainer.h"
#include "search/evaluator.h"
#include "search/search_space.h"

namespace automc {
namespace {

using search::EvalPoint;
using search::SchemeEvaluator;
using search::SearchSpace;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

bool SamePoint(const EvalPoint& a, const EvalPoint& b) {
  return a.acc == b.acc && a.params == b.params && a.flops == b.flops &&
         a.ar == b.ar && a.pr == b.pr && a.fr == b.fr;
}

std::string StateBlob(const SchemeEvaluator& ev) {
  ByteWriter w;
  ev.SnapshotState(&w);
  return w.Take();
}

int Run() {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 3;
  cfg.train_per_class = 12;
  cfg.test_per_class = 4;
  cfg.seed = 41;
  data::TaskData task = MakeSyntheticTask(cfg);

  nn::ModelSpec spec;
  spec.family = "vgg";
  spec.depth = 13;
  spec.num_classes = 3;
  spec.base_width = 4;
  Rng rng(5);
  std::unique_ptr<nn::Model> model = std::move(nn::BuildModel(spec, &rng)).value();
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 12;
  nn::Trainer trainer(tc);
  AUTOMC_CHECK(trainer.Fit(model.get(), task.train).ok());

  compress::CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 1;
  ctx.batch_size = 12;
  ctx.seed = 3;

  SearchSpace space = SearchSpace::FullTable1();
  const int strategies = static_cast<int>(space.size());

  // One 16-candidate round. Distinct first steps give the planner disjoint
  // subtrees to fan out; when the space is smaller than the round the tail
  // wraps around into two-step schemes that chain onto the early singles.
  const int kCandidates = 16;
  std::vector<std::vector<int>> round;
  for (int i = 0; i < kCandidates; ++i) {
    if (i < strategies) {
      round.push_back({i});
    } else {
      round.push_back({i % strategies, (i + 1) % strategies});
    }
  }

  // Serial reference: the loop EvaluateBatch replaces.
  SchemeEvaluator serial(&space, model.get(), ctx, {});
  auto start = std::chrono::steady_clock::now();
  std::vector<EvalPoint> serial_points;
  for (const auto& scheme : round) {
    auto p = serial.Evaluate(scheme);
    AUTOMC_CHECK(p.ok());
    serial_points.push_back(*p);
  }
  const double serial_ms = MsSince(start);

  // Batched run on a fresh evaluator (thread count comes from
  // AUTOMC_THREADS, set by the driver).
  SchemeEvaluator batched(&space, model.get(), ctx, {});
  start = std::chrono::steady_clock::now();
  auto batch = batched.EvaluateBatch(round);
  AUTOMC_CHECK(batch.ok());
  const double batch_ms = MsSince(start);

  // Bit-identity gate: a speedup claim over non-identical results would be
  // meaningless, so mismatches make the bench fail loudly.
  bool identical = batch->points.size() == serial_points.size() &&
                   serial.CacheDigest() == batched.CacheDigest() &&
                   serial.charged_executions() == batched.charged_executions() &&
                   serial.strategy_executions() == batched.strategy_executions() &&
                   StateBlob(serial) == StateBlob(batched);
  for (size_t i = 0; identical && i < serial_points.size(); ++i) {
    identical = SamePoint(batch->points[i], serial_points[i]);
  }

  const auto& subtrees =
      metrics::MetricsRegistry::Global().GetHistogram("eval.parallel_subtrees");
  std::printf(
      "{\n"
      "  \"threads\": %d,\n"
      "  \"candidates\": %d,\n"
      "  \"strategies_in_space\": %d,\n"
      "  \"parallel_subtrees\": %.0f,\n"
      "  \"serial_loop_ms\": %.2f,\n"
      "  \"batch_ms\": %.2f,\n"
      "  \"speedup\": %.3f,\n"
      "  \"identical\": %s\n"
      "}\n",
      ThreadPool::Global().threads(), kCandidates, strategies,
      subtrees.max(), serial_ms, batch_ms, serial_ms / batch_ms,
      identical ? "true" : "false");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace automc

int main() { return automc::Run(); }
