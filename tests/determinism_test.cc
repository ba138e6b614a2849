// End-to-end determinism of the parallel execution backend: training loss
// curves and progressive-search outcomes must be BIT-IDENTICAL for any
// thread count (the ISSUE acceptance bar: same Pareto CSV no matter what
// AUTOMC_THREADS is set to). Each case runs the same seeded workload under a
// 1-lane and a 4-lane global pool and compares with EXPECT_EQ, never
// EXPECT_NEAR.
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/run_spec.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "search/progressive.h"
#include "search/report.h"
#include "search/rl.h"
#include "test_util.h"

namespace automc {
namespace search {
namespace {

using tensor::Tensor;

struct Fixture {
  data::TaskData task;
  std::unique_ptr<nn::Model> model;
  compress::CompressionContext ctx;
  SearchSpace space = SearchSpace::SingleMethod("NS");

  explicit Fixture(uint64_t seed = 3) {
    data::SyntheticTaskConfig cfg;
    cfg.num_classes = 3;
    cfg.train_per_class = 10;
    cfg.test_per_class = 4;
    cfg.seed = 91;
    task = MakeSyntheticTask(cfg);

    nn::ModelSpec spec;
    spec.family = "vgg";
    spec.depth = 13;
    spec.num_classes = 3;
    spec.base_width = 4;
    Rng rng(seed);
    model = std::move(nn::BuildModel(spec, &rng)).value();

    ctx.train = &task.train;
    ctx.test = &task.test;
    ctx.pretrain_epochs = 1;
    ctx.batch_size = 10;
    ctx.seed = 5;
  }
};

using testing::PoolGuard;

TEST(DeterminismTest, TrainerFitLossIsThreadCountInvariant) {
  auto run = [](int threads) {
    PoolGuard guard(threads);
    Fixture f;
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 10;
    nn::Trainer trainer(tc);
    float final_loss = 0.0f;
    AUTOMC_CHECK(
        trainer.Fit(f.model.get(), f.task.train, nullptr, nullptr, &final_loss)
            .ok());
    double acc = nn::Trainer::Evaluate(f.model.get(), f.task.test);
    return std::make_pair(final_loss, acc);
  };
  auto [loss1, acc1] = run(1);
  auto [loss4, acc4] = run(4);
  EXPECT_EQ(loss1, loss4);  // bitwise: same chunks, same reduction order
  EXPECT_EQ(acc1, acc4);
}

// The full progressive pipeline: evaluator (compressors + retraining), F_mo
// scoring fan-out, Pareto front computation. The archives must match scheme
// for scheme and point for point.
SearchOutcome RunProgressive(int threads) {
  PoolGuard guard(threads);
  Fixture f;
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 10;
  nn::Trainer trainer(tc);
  AUTOMC_CHECK(trainer.Fit(f.model.get(), f.task.train).ok());

  SchemeEvaluator evaluator(&f.space, f.model.get(), f.ctx, {});
  Rng rng(7);
  std::vector<Tensor> embeddings;
  for (size_t i = 0; i < f.space.size(); ++i) {
    embeddings.push_back(Tensor::Randn({8}, &rng));
  }
  ProgressiveSearcher::Options opts;
  opts.sample_schemes = 2;
  opts.candidates_per_scheme = 10;
  opts.max_evals_per_round = 2;
  ProgressiveSearcher searcher(
      embeddings, Tensor::Randn({data::kTaskFeatureDim}, &rng), opts);
  SearchConfig cfg;
  cfg.max_strategy_executions = 6;
  cfg.max_length = 3;
  cfg.gamma = 0.1;
  cfg.seed = 11;
  auto outcome = searcher.Search(&evaluator, f.space, cfg);
  AUTOMC_CHECK(outcome.ok()) << outcome.status().ToString();
  return *outcome;
}

TEST(DeterminismTest, ProgressiveSearchArchiveIsThreadCountInvariant) {
  SearchOutcome serial = RunProgressive(1);
  SearchOutcome quad = RunProgressive(4);
  EXPECT_EQ(serial.executions, quad.executions);
  ASSERT_EQ(serial.pareto_schemes.size(), quad.pareto_schemes.size());
  EXPECT_EQ(serial.pareto_schemes, quad.pareto_schemes);
  ASSERT_EQ(serial.pareto_points.size(), quad.pareto_points.size());
  for (size_t i = 0; i < serial.pareto_points.size(); ++i) {
    EXPECT_EQ(serial.pareto_points[i].acc, quad.pareto_points[i].acc) << i;
    EXPECT_EQ(serial.pareto_points[i].params, quad.pareto_points[i].params)
        << i;
    EXPECT_EQ(serial.pareto_points[i].flops, quad.pareto_points[i].flops) << i;
    EXPECT_EQ(serial.pareto_points[i].pr, quad.pareto_points[i].pr) << i;
  }
}

// The RL controller samples from softmax probabilities computed by the
// (now row-parallel) action head; the sampled episodes must not depend on
// the thread count either.
SearchOutcome RunRl(int threads) {
  PoolGuard guard(threads);
  Fixture f;
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 10;
  nn::Trainer trainer(tc);
  AUTOMC_CHECK(trainer.Fit(f.model.get(), f.task.train).ok());
  SchemeEvaluator evaluator(&f.space, f.model.get(), f.ctx, {});
  RlSearcher searcher;
  SearchConfig cfg;
  cfg.max_strategy_executions = 5;
  cfg.max_length = 3;
  cfg.gamma = 0.1;
  cfg.seed = 13;
  auto outcome = searcher.Search(&evaluator, f.space, cfg);
  AUTOMC_CHECK(outcome.ok()) << outcome.status().ToString();
  return *outcome;
}

TEST(DeterminismTest, RlSearchArchiveIsThreadCountInvariant) {
  SearchOutcome serial = RunRl(1);
  SearchOutcome quad = RunRl(4);
  EXPECT_EQ(serial.executions, quad.executions);
  EXPECT_EQ(serial.pareto_schemes, quad.pareto_schemes);
}

// A whole AutoMC run: pretraining and embedding learning share the pool,
// then the progressive search runs. The outcome and the winner's model must
// match byte for byte.
std::pair<std::string, std::string> RunAutoMC(int threads) {
  PoolGuard guard(threads);
  core::RunSpec spec;
  spec.dataset = "tiny";
  spec.searcher = "automc";
  spec.budget = 3;
  spec.pretrain = 1;
  spec.seed = 17;
  const core::CompressionTask task = core::MakeTask(spec);
  auto result = core::RunSearch(spec, task);
  AUTOMC_CHECK(result.ok()) << result.status().ToString();
  auto winner = core::WinningModel(spec, task, *result);
  AUTOMC_CHECK(winner.ok()) << winner.status().ToString();
  std::ostringstream model;
  AUTOMC_CHECK(nn::SerializeModel(winner->get(), &model).ok());
  return {SaveOutcomeBytes(result->outcome), model.str()};
}

TEST(DeterminismTest, AutoMCRunIsThreadCountInvariant) {
  auto [outcome1, model1] = RunAutoMC(1);
  auto [outcome4, model4] = RunAutoMC(4);
  EXPECT_FALSE(outcome1.empty());
  EXPECT_TRUE(outcome1 == outcome4);
  EXPECT_FALSE(model1.empty());
  EXPECT_TRUE(model1 == model4);
}

}  // namespace
}  // namespace search
}  // namespace automc
