// Cross-module integration scenarios: method x architecture sweeps,
// determinism of the full pipeline, evaluator cache correctness under
// eviction, and search over the extended (quantization-included) space.
#include <memory>
#include <sstream>

#include "core/automc.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "search/evolutionary.h"
#include "search/random_search.h"

namespace automc {
namespace {

using tensor::Tensor;

data::TaskData SmallTask(uint64_t seed = 77) {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 16;
  cfg.test_per_class = 6;
  cfg.seed = seed;
  return MakeSyntheticTask(cfg);
}

std::unique_ptr<nn::Model> PretrainedModel(const std::string& family,
                                           int depth,
                                           const data::TaskData& task,
                                           uint64_t seed = 3) {
  nn::ModelSpec spec;
  spec.family = family;
  spec.depth = depth;
  spec.num_classes = task.train.num_classes;
  spec.base_width = 4;
  Rng rng(seed);
  auto model = std::move(nn::BuildModel(spec, &rng)).value();
  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  tc.seed = seed;
  nn::Trainer trainer(tc);
  AUTOMC_CHECK(trainer.Fit(model.get(), task.train).ok());
  return model;
}

// --------------------------------------------------------------------------
// Every method must run on BOTH architecture families (the per-method test
// in compress_test.cc covers one family each).

struct Combo {
  const char* method;
  const char* family;
  int depth;
};

class MethodFamilySweep : public ::testing::TestWithParam<Combo> {};

TEST_P(MethodFamilySweep, CompressesBothFamilies) {
  Combo c = GetParam();
  data::TaskData task = SmallTask();
  auto model = PretrainedModel(c.family, c.depth, task);

  search::SearchSpace grid = search::SearchSpace::SingleMethod(c.method);
  compress::StrategySpec spec = grid.strategy(grid.size() / 2);

  compress::CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 2;
  ctx.batch_size = 16;
  ctx.seed = 5;

  auto compressor = compress::CreateCompressor(spec);
  ASSERT_TRUE(compressor.ok());
  compress::CompressionStats stats;
  Status st = (*compressor)->Compress(model.get(), ctx, &stats);
  ASSERT_TRUE(st.ok()) << c.method << " on " << c.family << ": "
                       << st.ToString();
  EXPECT_GT(stats.ParamReduction(), 0.0) << spec.ToString();
  // Output remains finite.
  Rng rng(6);
  Tensor x = Tensor::Randn({1, 3, 8, 8}, &rng);
  Tensor y = model->Forward(x, false);
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_TRUE(std::isfinite(y[i]));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MethodFamilySweep,
    ::testing::Values(Combo{"LMA", "vgg", 13}, Combo{"LeGR", "resnet", 20},
                      Combo{"NS", "resnet", 20}, Combo{"SFP", "vgg", 13},
                      Combo{"HOS", "resnet", 20}, Combo{"LFB", "vgg", 13},
                      Combo{"QT", "resnet", 20}, Combo{"QT", "vgg", 13}),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::string(info.param.method) + "_" + info.param.family;
    });

// --------------------------------------------------------------------------
// Determinism: the same seed yields the same search outcome end to end.

TEST(DeterminismTest, AutoMcRunIsReproducible) {
  core::CompressionTask task;
  task.data = SmallTask(101);
  task.model_spec.family = "resnet";
  task.model_spec.depth = 20;
  task.model_spec.num_classes = 4;
  task.model_spec.base_width = 4;
  task.pretrain_epochs = 2;
  task.search_data_fraction = 0.5;
  task.seed = 13;

  core::AutoMCOptions opts;
  opts.search.max_strategy_executions = 5;
  opts.search.gamma = 0.2;
  opts.embedding.train_epochs = 2;
  opts.experience.num_tasks = 1;
  opts.experience.strategies_per_task = 3;
  opts.experience.pretrain_epochs = 1;
  opts.multi_source = false;
  opts.seed = 21;

  core::AutoMC a(opts), b(opts);
  auto ra = a.Run(task);
  auto rb = b.Run(task);
  ASSERT_TRUE(ra.ok() && rb.ok());
  ASSERT_EQ(ra->outcome.pareto_schemes.size(), rb->outcome.pareto_schemes.size());
  for (size_t i = 0; i < ra->outcome.pareto_schemes.size(); ++i) {
    EXPECT_EQ(ra->outcome.pareto_schemes[i], rb->outcome.pareto_schemes[i]);
    EXPECT_DOUBLE_EQ(ra->outcome.pareto_points[i].acc,
                     rb->outcome.pareto_points[i].acc);
  }
}

TEST(DeterminismTest, ExperienceGenerationIsReproducible) {
  auto strategies = search::SearchSpace::SingleMethod("NS").strategies();
  kg::ExperienceGenConfig cfg;
  cfg.num_tasks = 1;
  cfg.strategies_per_task = 3;
  cfg.pretrain_epochs = 1;
  cfg.seed = 31;
  auto a = kg::GenerateExperience(strategies, cfg);
  auto b = kg::GenerateExperience(strategies, cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].strategy_index, (*b)[i].strategy_index);
    EXPECT_FLOAT_EQ((*a)[i].ar, (*b)[i].ar);
    EXPECT_FLOAT_EQ((*a)[i].pr, (*b)[i].pr);
  }
}

// --------------------------------------------------------------------------
// Evaluator under eviction pressure must stay correct (recompute == cached).

TEST(EvaluatorEvictionTest, TinyCacheMatchesLargeCache) {
  data::TaskData task = SmallTask(55);
  auto model = PretrainedModel("vgg", 13, task, 7);
  search::SearchSpace space = search::SearchSpace::SingleMethod("NS");

  compress::CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 1;
  ctx.batch_size = 16;
  ctx.seed = 11;

  search::SchemeEvaluator::Options big_opts;
  big_opts.max_cached_models = 64;
  search::SchemeEvaluator big(&space, model.get(), ctx, big_opts);
  search::SchemeEvaluator::Options tiny_opts;
  tiny_opts.max_cached_models = 1;
  search::SchemeEvaluator tiny(&space, model.get(), ctx, tiny_opts);

  std::vector<std::vector<int>> schemes = {{0}, {5, 7}, {0, 3}, {5, 7}, {0}};
  for (const auto& scheme : schemes) {
    auto pb = big.Evaluate(scheme);
    auto pt = tiny.Evaluate(scheme);
    ASSERT_TRUE(pb.ok() && pt.ok());
    EXPECT_DOUBLE_EQ(pb->acc, pt->acc) << "scheme size " << scheme.size();
    EXPECT_EQ(pb->params, pt->params);
  }
  // The tiny cache must have re-executed more strategies.
  EXPECT_GT(tiny.strategy_executions(), big.strategy_executions());
}

// --------------------------------------------------------------------------
// Search over the extended space (quantization included) works end to end
// and can pick quantization steps.

TEST(ExtensionSpaceTest, SearchRunsOverQuantizedSpace) {
  data::TaskData task = SmallTask(66);
  auto model = PretrainedModel("resnet", 20, task, 9);
  search::SearchSpace space = search::SearchSpace::Table1WithExtensions();

  compress::CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 1;
  ctx.batch_size = 16;
  ctx.seed = 17;
  search::SchemeEvaluator evaluator(&space, model.get(), ctx, {});

  search::SearchConfig cfg;
  cfg.max_strategy_executions = 6;
  cfg.max_length = 2;
  cfg.gamma = 0.3;
  cfg.seed = 19;
  search::RandomSearcher searcher;
  auto outcome = searcher.Search(&evaluator, space, cfg);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->pareto_schemes.empty());
}

TEST(ExtensionSpaceTest, QuantizationStepEvaluates) {
  data::TaskData task = SmallTask(67);
  auto model = PretrainedModel("vgg", 13, task, 10);
  search::SearchSpace space = search::SearchSpace::Table1WithExtensions();
  // Find a QT strategy index.
  int qt = -1;
  for (size_t i = 0; i < space.size(); ++i) {
    if (space.strategy(i).method == "QT") {
      qt = static_cast<int>(i);
      break;
    }
  }
  ASSERT_GE(qt, 0);
  compress::CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 1;
  ctx.batch_size = 16;
  search::SchemeEvaluator evaluator(&space, model.get(), ctx, {});
  auto point = evaluator.Evaluate({qt});
  ASSERT_TRUE(point.ok());
  EXPECT_GT(point->pr, 0.5);  // 4..8-bit weights save >= 75% storage
}

// --------------------------------------------------------------------------
// Compress -> serialize -> load -> keep compressing (a realistic workflow).

TEST(WorkflowTest, CompressSaveLoadCompressAgain) {
  data::TaskData task = SmallTask(88);
  auto model = PretrainedModel("vgg", 13, task, 12);
  compress::CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 2;
  ctx.batch_size = 16;

  compress::StrategySpec ns{"NS",
                            {{"HP1", "0.5"}, {"HP2", "0.2"}, {"HP6", "0.9"}}};
  auto c1 = compress::CreateCompressor(ns);
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE((*c1)->Compress(model.get(), ctx, nullptr).ok());

  std::stringstream buf;
  ASSERT_TRUE(nn::SerializeModel(model.get(), &buf).ok());
  auto loaded = nn::DeserializeModel(buf.str());
  ASSERT_TRUE(loaded.ok());

  compress::StrategySpec qt{"QT", {{"HP1", "0.5"}, {"HP17", "8"}}};
  auto c2 = compress::CreateCompressor(qt);
  ASSERT_TRUE(c2.ok());
  compress::CompressionStats stats;
  ASSERT_TRUE((*c2)->Compress(loaded->get(), ctx, &stats).ok());
  EXPECT_GT(stats.ParamReduction(), 0.5);
  EXPECT_GT(stats.acc_after, 0.0);
}

// --------------------------------------------------------------------------
// Archive history semantics.

TEST(ArchiveTest, TracksBestFeasibleSeparately) {
  search::Archive archive(/*gamma=*/0.5);
  search::EvalPoint infeasible;
  infeasible.acc = 0.9;
  infeasible.pr = 0.2;
  archive.Record({1}, infeasible, 1);
  EXPECT_LT(archive.best_feasible_acc(), 0.0);  // none yet
  search::EvalPoint feasible;
  feasible.acc = 0.6;
  feasible.pr = 0.6;
  archive.Record({2}, feasible, 2);
  EXPECT_DOUBLE_EQ(archive.best_feasible_acc(), 0.6);

  search::SearchOutcome out = archive.Finalize(2);
  ASSERT_EQ(out.history.size(), 2u);
  EXPECT_DOUBLE_EQ(out.history[0].best_acc_any, 0.9);
  EXPECT_DOUBLE_EQ(out.history[1].best_acc, 0.6);
  // Pareto set contains only the feasible scheme.
  ASSERT_EQ(out.pareto_schemes.size(), 1u);
  EXPECT_EQ(out.pareto_schemes[0], (std::vector<int>{2}));
}

TEST(ArchiveTest, FallsBackWhenNothingFeasible) {
  search::Archive archive(0.9);
  search::EvalPoint p;
  p.acc = 0.5;
  p.pr = 0.1;
  p.params = 100;
  archive.Record({3}, p, 1);
  search::SearchOutcome out = archive.Finalize(1);
  ASSERT_EQ(out.pareto_schemes.size(), 1u);  // best effort
}

TEST(ArchiveTest, DeduplicatesSchemes) {
  search::Archive archive(0.0);
  search::EvalPoint p;
  p.acc = 0.5;
  p.pr = 0.3;
  p.params = 100;
  archive.Record({1, 2}, p, 1);
  archive.Record({1, 2}, p, 2);
  search::SearchOutcome out = archive.Finalize(2);
  EXPECT_EQ(out.pareto_schemes.size(), 1u);
}

}  // namespace
}  // namespace automc
