#include <memory>
#include <sstream>
#include <string>

#include "core/automc.h"
#include "core/run_spec.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "nn/trainer.h"

namespace automc {
namespace core {
namespace {

CompressionTask TinyTask() {
  CompressionTask task;
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 3;
  cfg.train_per_class = 16;
  cfg.test_per_class = 6;
  cfg.seed = 51;
  task.data = MakeSyntheticTask(cfg);
  task.model_spec.family = "resnet";
  task.model_spec.depth = 20;
  task.model_spec.num_classes = 3;
  task.model_spec.base_width = 4;
  task.pretrain_epochs = 2;
  task.batch_size = 16;
  task.search_data_fraction = 0.5;
  task.seed = 9;
  return task;
}

AutoMCOptions TinyOptions() {
  AutoMCOptions opts;
  opts.search.max_strategy_executions = 6;
  opts.search.max_length = 3;
  opts.search.gamma = 0.2;
  opts.embedding.train_epochs = 3;
  opts.embedding.transr.entity_dim = 16;
  opts.embedding.transr.relation_dim = 16;
  opts.experience.num_tasks = 1;
  opts.experience.strategies_per_task = 3;
  opts.experience.pretrain_epochs = 1;
  opts.progressive.sample_schemes = 2;
  opts.progressive.candidates_per_scheme = 12;
  opts.progressive.max_evals_per_round = 2;
  // Small spaces keep the pipeline test fast; the full Table 1 space is
  // exercised by the benches.
  opts.multi_source = false;
  opts.seed = 3;
  return opts;
}

TEST(PretrainTest, ProducesLearnedModel) {
  CompressionTask task = TinyTask();
  auto model = PretrainModel(task);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  double acc = nn::Trainer::Evaluate(model->get(), task.data.test);
  EXPECT_GT(acc, 1.2 / 3.0);  // clearly above chance
}

TEST(AutoMCTest, FullPipelineRuns) {
  CompressionTask task = TinyTask();
  AutoMC automc(TinyOptions());
  auto result = automc.Run(task);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->base_accuracy, 0.0);
  ASSERT_FALSE(result->outcome.pareto_schemes.empty());
  EXPECT_EQ(result->pareto_descriptions.size(),
            result->outcome.pareto_schemes.size());
  // Descriptions name the method.
  EXPECT_NE(result->pareto_descriptions[0].find("LeGR"), std::string::npos);
  // Every Pareto point actually reduced parameters.
  for (const auto& p : result->outcome.pareto_points) {
    EXPECT_GT(p.pr, 0.0);
  }
}

// Pretraining and experience generation run side by side, but a run that
// fails in both reports pretraining's error, the earlier stage.
TEST(AutoMCTest, PretrainingErrorTakesPrecedence) {
  AutoMCOptions opts = TinyOptions();
  opts.experience.num_tasks = 0;  // generates no records: kInternal

  CompressionTask bad_family = TinyTask();
  bad_family.model_spec.family = "mlp";
  auto both = AutoMC(opts).Run(bad_family);
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument)
      << both.status().ToString();

  auto experience_only = AutoMC(opts).Run(TinyTask());
  ASSERT_FALSE(experience_only.ok());
  EXPECT_EQ(experience_only.status().code(), StatusCode::kInternal)
      << experience_only.status().ToString();
}

struct AblationCase {
  const char* name;
  bool use_kg, use_exp, multi_source, progressive;
};

class AblationTest : public ::testing::TestWithParam<AblationCase> {};

TEST_P(AblationTest, VariantRuns) {
  AblationCase c = GetParam();
  CompressionTask task = TinyTask();
  AutoMCOptions opts = TinyOptions();
  opts.use_kg = c.use_kg;
  opts.use_exp = c.use_exp;
  opts.multi_source = c.multi_source;
  opts.use_progressive = c.progressive;
  AutoMC automc(opts);
  auto result = automc.Run(task);
  ASSERT_TRUE(result.ok()) << c.name << ": " << result.status().ToString();
  EXPECT_FALSE(result->outcome.pareto_schemes.empty()) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, AblationTest,
    ::testing::Values(AblationCase{"NoKG", false, true, false, true},
                      AblationCase{"NoExp", true, false, false, true},
                      AblationCase{"NonProgressive", true, true, false, false}),
    [](const ::testing::TestParamInfo<AblationCase>& info) {
      return info.param.name;
    });

std::string Serialized(nn::Model* model) {
  std::ostringstream out;
  EXPECT_TRUE(nn::SerializeModel(model, &out).ok());
  return out.str();
}

// RunSearch hands back the winning scheme's model its evaluator built, on
// the AutoMC path as on a baseline one, and it serializes to
// MaterializeScheme's bytes. A result without that snapshot gets the same
// bytes from WinningModel, rebuilt from the run's own base model.
TEST(RunSearchTest, WinnerModelIsTheMaterializedScheme) {
  for (const char* searcher : {"automc", "evolution"}) {
    SCOPED_TRACE(searcher);
    RunSpec spec;
    spec.family = "vgg";
    spec.depth = 13;
    spec.dataset = "tiny";
    spec.searcher = searcher;
    spec.budget = 4;
    spec.pretrain = 1;
    spec.eval_batch = 2;
    spec.seed = 5;
    const CompressionTask task = MakeTask(spec);
    auto result = RunSearch(spec, task);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_NE(result->winner_model, nullptr);
    auto win = PickWinningScheme(result->outcome);
    ASSERT_TRUE(win.ok()) << win.status().ToString();
    const std::vector<int>& scheme = result->outcome.pareto_schemes[*win];
    EXPECT_FALSE(scheme.empty());
    auto want = MaterializeScheme(spec, scheme);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(Serialized(result->winner_model.get()), Serialized(want->get()));

    AutoMCResult without_snapshot = *result;
    without_snapshot.winner_model = nullptr;
    auto rebuilt = WinningModel(spec, task, without_snapshot);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(Serialized(rebuilt->get()), Serialized(want->get()));
  }
}

TEST(ExecuteSchemeTest, TransfersSchemeToAnotherModel) {
  CompressionTask task = TinyTask();
  search::SearchSpace space = search::SearchSpace::SingleMethod("NS");

  // "Search" result: a fixed scheme found on resnet-20; transfer to vgg-13.
  std::vector<int> scheme = {1, 27};

  CompressionTask vgg_task = task;
  vgg_task.model_spec.family = "vgg";
  vgg_task.model_spec.depth = 13;
  auto model = PretrainModel(vgg_task);
  ASSERT_TRUE(model.ok());

  compress::CompressionContext ctx;
  ctx.train = &task.data.train;
  ctx.test = &task.data.test;
  ctx.pretrain_epochs = task.pretrain_epochs;
  ctx.batch_size = task.batch_size;
  ctx.seed = 77;

  int64_t params_before = (*model)->ParamCount();
  auto point = ExecuteScheme(space, scheme, model->get(), ctx);
  ASSERT_TRUE(point.ok()) << point.status().ToString();
  EXPECT_GT(point->pr, 0.0);
  EXPECT_LT((*model)->ParamCount(), params_before);
}

TEST(ExecuteSchemeTest, RejectsBadScheme) {
  CompressionTask task = TinyTask();
  search::SearchSpace space = search::SearchSpace::SingleMethod("NS");
  auto model = PretrainModel(task);
  ASSERT_TRUE(model.ok());
  compress::CompressionContext ctx;
  ctx.train = &task.data.train;
  ctx.test = &task.data.test;
  EXPECT_FALSE(ExecuteScheme(space, {9999}, model->get(), ctx).ok());
  EXPECT_FALSE(ExecuteScheme(space, {0}, nullptr, ctx).ok());
}

}  // namespace
}  // namespace core
}  // namespace automc
