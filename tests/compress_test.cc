#include <memory>

#include "compress/compressor.h"
#include "compress/decompose.h"
#include "compress/lowrank_apply.h"
#include "compress/methods.h"
#include "compress/surgery.h"
#include "gtest/gtest.h"
#include "nn/trainer.h"

namespace automc {
namespace compress {
namespace {

using tensor::Tensor;

nn::ModelSpec SmallSpec(const std::string& family, int depth,
                        int num_classes = 4) {
  nn::ModelSpec s;
  s.family = family;
  s.depth = depth;
  s.num_classes = num_classes;
  s.base_width = 4;
  s.in_channels = 3;
  s.image_size = 8;
  return s;
}

std::unique_ptr<nn::Model> MakeModel(const std::string& family, int depth,
                                     uint64_t seed = 1, int num_classes = 4) {
  Rng rng(seed);
  auto model = nn::BuildModel(SmallSpec(family, depth, num_classes), &rng);
  AUTOMC_CHECK(model.ok());
  return std::move(model).value();
}

data::TaskData SmallTask() {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 16;
  cfg.test_per_class = 6;
  cfg.noise = 0.3f;
  cfg.seed = 99;
  return MakeSyntheticTask(cfg);
}

// --------------------------------------------------------------------------
// Surgery

TEST(SurgeryTest, ResNetPrunableUnitCount) {
  auto model = MakeModel("resnet", 20);
  auto units = CollectPrunableUnits(model.get());
  // 9 basic blocks, one internal conv each.
  EXPECT_EQ(units.size(), 9u);
  for (const auto& u : units) {
    EXPECT_NE(u.conv, nullptr);
    EXPECT_NE(u.bn, nullptr);
    EXPECT_NE(u.next_conv, nullptr);
    EXPECT_EQ(u.next_linear, nullptr);
  }
}

TEST(SurgeryTest, BottleneckHasTwoUnitsPerBlock) {
  auto model = MakeModel("resnet", 164);
  auto units = CollectPrunableUnits(model.get());
  EXPECT_EQ(units.size(), 2u * 54u);
}

TEST(SurgeryTest, VggPrunableUnitCount) {
  auto model = MakeModel("vgg", 13);
  auto units = CollectPrunableUnits(model.get());
  // 10 convs: 9 feed the next conv, the last feeds the classifier.
  EXPECT_EQ(units.size(), 10u);
  EXPECT_NE(units.back().next_linear, nullptr);
}

TEST(SurgeryTest, PruningZeroFiltersPreservesFunction) {
  auto model = MakeModel("vgg", 13);
  auto units = CollectPrunableUnits(model.get());
  PrunableUnit unit = units[2];
  int64_t n = unit.conv->out_channels();
  ASSERT_GE(n, 4);
  // Zero filter 1's weights and BN affine params -> its output contribution
  // vanishes in eval mode.
  int64_t fsize =
      unit.conv->in_channels() * unit.conv->kernel() * unit.conv->kernel();
  float* w = unit.conv->weight().value.MutableData() + 1 * fsize;
  std::fill(w, w + fsize, 0.0f);
  unit.bn->gamma().value[1] = 0.0f;
  unit.bn->beta().value[1] = 0.0f;

  Rng rng(3);
  Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);
  Tensor before = model->Forward(x, false);

  std::vector<int64_t> keep;
  for (int64_t f = 0; f < n; ++f) {
    if (f != 1) keep.push_back(f);
  }
  ASSERT_TRUE(PruneUnitFilters(unit, keep).ok());
  Tensor after = model->Forward(x, false);
  ASSERT_EQ(before.numel(), after.numel());
  for (int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_NEAR(before[i], after[i], 1e-4);
  }
}

TEST(SurgeryTest, PruneUnitValidation) {
  auto model = MakeModel("resnet", 20);
  auto units = CollectPrunableUnits(model.get());
  EXPECT_FALSE(PruneUnitFilters(units[0], {}).ok());
  EXPECT_FALSE(PruneUnitFilters(units[0], {999}).ok());
}

class GlobalPruneTargetTest : public ::testing::TestWithParam<double> {};

TEST_P(GlobalPruneTargetTest, HitsTargetWithinOneFilter) {
  double target = GetParam();
  auto model = MakeModel("vgg", 13);
  int64_t params0 = model->ParamCount();
  GlobalPruneOptions opts;
  opts.target_param_fraction = target;
  ASSERT_TRUE(GlobalStructuredPrune(model.get(), opts, FilterL2).ok());
  double achieved = 1.0 - static_cast<double>(model->ParamCount()) / params0;
  EXPECT_GE(achieved, target - 0.05);
  EXPECT_LE(achieved, target + 0.1);
  // Model must still run.
  Rng rng(4);
  Tensor x = Tensor::Randn({1, 3, 8, 8}, &rng);
  Tensor y = model->Forward(x, false);
  EXPECT_EQ(y.size(1), 4);
}

INSTANTIATE_TEST_SUITE_P(Targets, GlobalPruneTargetTest,
                         ::testing::Values(0.1, 0.2, 0.3, 0.4));

TEST(GlobalPruneTest, RespectsPerLayerCap) {
  auto model = MakeModel("vgg", 13);
  auto units_before = CollectPrunableUnits(model.get());
  std::vector<int64_t> orig;
  for (auto& u : units_before) orig.push_back(u.conv->out_channels());
  GlobalPruneOptions opts;
  opts.target_param_fraction = 0.6;
  opts.max_prune_ratio_per_layer = 0.5;
  ASSERT_TRUE(GlobalStructuredPrune(model.get(), opts, FilterL2).ok());
  auto units_after = CollectPrunableUnits(model.get());
  for (size_t i = 0; i < units_after.size(); ++i) {
    double pruned =
        1.0 - static_cast<double>(units_after[i].conv->out_channels()) /
                  orig[i];
    EXPECT_LE(pruned, 0.5 + 1e-9);
  }
}

TEST(GlobalPruneTest, RejectsBadFraction) {
  auto model = MakeModel("vgg", 13);
  GlobalPruneOptions opts;
  opts.target_param_fraction = 0.0;
  EXPECT_FALSE(GlobalStructuredPrune(model.get(), opts, FilterL2).ok());
  opts.target_param_fraction = 1.0;
  EXPECT_FALSE(GlobalStructuredPrune(model.get(), opts, FilterL2).ok());
}

TEST(UniformPruneTest, RemovesSameFractionPerUnit) {
  auto model = MakeModel("vgg", 16);
  auto units = CollectPrunableUnits(model.get());
  std::vector<int64_t> orig;
  for (auto& u : units) orig.push_back(u.conv->out_channels());
  ASSERT_TRUE(UniformStructuredPrune(model.get(), 0.25, FilterL2).ok());
  units = CollectPrunableUnits(model.get());
  for (size_t i = 0; i < units.size(); ++i) {
    int64_t expected =
        std::max<int64_t>(2, orig[i] - static_cast<int64_t>(0.25 * orig[i]));
    EXPECT_EQ(units[i].conv->out_channels(), expected);
  }
}

TEST(SurgeryTest, ReplaceAllActivationsOnBothFamilies) {
  for (auto family_depth :
       {std::make_pair(std::string("resnet"), 20),
        std::make_pair(std::string("vgg"), 13)}) {
    auto model = MakeModel(family_depth.first, family_depth.second);
    int64_t params_before = model->ParamCount();
    nn::LMAActivation proto(4);
    ReplaceAllActivations(model.get(), proto);
    EXPECT_GT(model->ParamCount(), params_before);
    Rng rng(5);
    Tensor x = Tensor::Randn({1, 3, 8, 8}, &rng);
    Tensor y = model->Forward(x, false);
    EXPECT_TRUE(std::isfinite(y[0]));
  }
}

// --------------------------------------------------------------------------
// Decomposition

TEST(DecomposeTest, SvdFullRankMatchesOriginal) {
  Rng rng(6);
  nn::Conv2d conv(3, 4, 3, 1, 1, true, &rng);
  for (int64_t i = 0; i < 4; ++i) conv.bias().value[i] = 0.1f * i;
  auto lr = SvdDecomposeConv(conv, 4);  // rank = out_channels (full)
  Tensor x = Tensor::Randn({2, 3, 5, 5}, &rng);
  Tensor y0 = conv.Forward(x, false);
  Tensor y1 = lr->Forward(x, false);
  for (int64_t i = 0; i < y0.numel(); ++i) EXPECT_NEAR(y0[i], y1[i], 1e-3);
}

TEST(DecomposeTest, SvdTruncatedReducesParams) {
  Rng rng(7);
  nn::Conv2d conv(8, 8, 3, 1, 1, false, &rng);
  int64_t breakeven = SvdBreakEvenRank(conv);
  ASSERT_GE(breakeven, 1);
  auto lr = SvdDecomposeConv(conv, breakeven);
  EXPECT_LT(lr->ParamCount(), conv.ParamCount());
  EXPECT_EQ(lr->ParamCount(), SvdParamsAtRank(conv, breakeven));
}

TEST(DecomposeTest, SvdRankOneStillApproximates) {
  Rng rng(8);
  nn::Conv2d conv(4, 4, 3, 1, 1, false, &rng);
  // Make the kernel genuinely rank-1 in its [F, CKK] unfolding.
  Tensor& w = conv.weight().value;
  Rng rng2(9);
  Tensor u = Tensor::Randn({4}, &rng2);
  Tensor v = Tensor::Randn({36}, &rng2);
  for (int64_t f = 0; f < 4; ++f) {
    for (int64_t j = 0; j < 36; ++j) w[f * 36 + j] = u[f] * v[j];
  }
  auto lr = SvdDecomposeConv(conv, 1);
  Tensor x = Tensor::Randn({1, 4, 5, 5}, &rng);
  Tensor y0 = conv.Forward(x, false);
  Tensor y1 = lr->Forward(x, false);
  for (int64_t i = 0; i < y0.numel(); ++i) EXPECT_NEAR(y0[i], y1[i], 1e-3);
}

TEST(DecomposeTest, HooiFullRankMatchesOriginal) {
  Rng rng(10);
  nn::Conv2d conv(4, 5, 3, 2, 1, false, &rng);
  auto lr = HooiDecomposeConv(conv, 5, 4);  // full ranks
  Tensor x = Tensor::Randn({2, 4, 6, 6}, &rng);
  Tensor y0 = conv.Forward(x, false);
  Tensor y1 = lr->Forward(x, false);
  ASSERT_EQ(y0.shape(), y1.shape());
  for (int64_t i = 0; i < y0.numel(); ++i) EXPECT_NEAR(y0[i], y1[i], 2e-3);
}

TEST(DecomposeTest, HooiTruncatedBeatsRandomBaseline) {
  // HOOI at half ranks must approximate the kernel far better than a random
  // kernel of the same structure (sanity on the optimization).
  Rng rng(11);
  nn::Conv2d conv(8, 8, 3, 1, 1, false, &rng);
  auto lr = HooiDecomposeConv(conv, 4, 4);
  Tensor x = Tensor::Randn({2, 8, 6, 6}, &rng);
  Tensor y0 = conv.Forward(x, false);
  Tensor y1 = lr->Forward(x, false);
  double err = 0.0, base = 0.0;
  for (int64_t i = 0; i < y0.numel(); ++i) {
    err += (y0[i] - y1[i]) * (y0[i] - y1[i]);
    base += y0[i] * y0[i];
  }
  EXPECT_LT(err, 0.8 * base);
}

TEST(DecomposeTest, HooiClampsInfeasibleRanks) {
  // Regression: conv 2->16 with requested ranks (10, 1) used to index past
  // the 9 columns the refinement SVD can provide (crash in Matrix::at).
  Rng rng(99);
  nn::Conv2d conv(2, 16, 3, 1, 1, false, &rng);
  auto lr = HooiDecomposeConv(conv, 10, 1);
  ASSERT_NE(lr, nullptr);
  EXPECT_EQ(lr->in_channels(), 2);
  EXPECT_EQ(lr->out_channels(), 16);
  Tensor x = Tensor::Randn({1, 2, 5, 5}, &rng);
  Tensor y = lr->Forward(x, false);
  EXPECT_TRUE(std::isfinite(y[0]));
  // Planner and implementation agree on the clamped ranks.
  auto [r_out, r_in] = ClampTuckerRanks(conv, 10, 1);
  EXPECT_EQ(lr->ParamCount(), TuckerParamsAtRanks(conv, r_out, r_in));
  EXPECT_LE(r_out, r_in * 9);
}

TEST(DecomposeTest, TuckerParamsFormula) {
  Rng rng(12);
  nn::Conv2d conv(6, 8, 3, 1, 1, false, &rng);
  auto lr = HooiDecomposeConv(conv, 3, 2);
  EXPECT_EQ(lr->ParamCount(), TuckerParamsAtRanks(conv, 3, 2));
}

TEST(LowRankApplyTest, MeetsGlobalTarget) {
  for (DecompKind kind : {DecompKind::kSvd, DecompKind::kHooi}) {
    auto model = MakeModel("vgg", 16);
    int64_t params0 = model->ParamCount();
    ASSERT_TRUE(ApplyLowRankGlobal(model.get(), 0.3, kind).ok());
    double achieved =
        1.0 - static_cast<double>(model->ParamCount()) / params0;
    EXPECT_GT(achieved, 0.2);
    Rng rng(13);
    Tensor x = Tensor::Randn({1, 3, 8, 8}, &rng);
    Tensor y = model->Forward(x, false);
    EXPECT_TRUE(std::isfinite(y[0]));
  }
}

TEST(LowRankApplyTest, ResNetBlocksGetDecomposed) {
  auto model = MakeModel("resnet", 20);
  int64_t params0 = model->ParamCount();
  ASSERT_TRUE(ApplyLowRankGlobal(model.get(), 0.25, DecompKind::kSvd).ok());
  EXPECT_LT(model->ParamCount(), params0);
}

// --------------------------------------------------------------------------
// Strategy spec plumbing

TEST(StrategySpecTest, HpParsing) {
  StrategySpec s;
  s.method = "NS";
  s.hp = {{"HP1", "0.3"}, {"HP2", "0.2"}, {"HP6", "0.9"}};
  EXPECT_DOUBLE_EQ(GetHpDouble(s, "HP1").value(), 0.3);
  EXPECT_FALSE(GetHpDouble(s, "HP99").ok());
  s.hp["HPX"] = "abc";
  EXPECT_FALSE(GetHpDouble(s, "HPX").ok());
  EXPECT_EQ(GetHpString(s, "HPX").value(), "abc");
}

TEST(StrategySpecTest, ToStringStable) {
  StrategySpec s;
  s.method = "SFP";
  s.hp = {{"HP2", "0.2"}, {"HP10", "3"}};
  EXPECT_EQ(s.ToString(), "SFP(HP10=3,HP2=0.2)");
}

TEST(FactoryTest, UnknownMethodRejected) {
  StrategySpec s;
  s.method = "Quantize";
  EXPECT_FALSE(CreateCompressor(s).ok());
}

TEST(FactoryTest, MissingHpRejected) {
  StrategySpec s;
  s.method = "NS";
  s.hp = {{"HP1", "0.3"}};
  EXPECT_FALSE(CreateCompressor(s).ok());
}

// --------------------------------------------------------------------------
// End-to-end: every method compresses a small model and leaves it runnable.

struct MethodCase {
  StrategySpec spec;
  std::string family;
  int depth;
};

class MethodEndToEndTest : public ::testing::TestWithParam<MethodCase> {};

TEST_P(MethodEndToEndTest, CompressesAndStaysFunctional) {
  const MethodCase& mc = GetParam();
  data::TaskData task = SmallTask();
  auto model = MakeModel(mc.family, mc.depth, /*seed=*/21);

  // Brief pretraining so accuracy is meaningful.
  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  tc.seed = 5;
  nn::Trainer trainer(tc);
  ASSERT_TRUE(trainer.Fit(model.get(), task.train).ok());

  CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 2;
  ctx.batch_size = 16;
  ctx.seed = 7;

  auto compressor = CreateCompressor(mc.spec);
  ASSERT_TRUE(compressor.ok()) << compressor.status().ToString();
  CompressionStats stats;
  Status st = (*compressor)->Compress(model.get(), ctx, &stats);
  ASSERT_TRUE(st.ok()) << mc.spec.ToString() << ": " << st.ToString();

  EXPECT_LT(stats.params_after, stats.params_before) << mc.spec.ToString();
  EXPECT_GT(stats.ParamReduction(), 0.05) << mc.spec.ToString();
  EXPECT_GE(stats.acc_after, 0.0);
  EXPECT_LE(stats.acc_after, 1.0);
  // Still trainable after compression (exercises backward through any
  // composite layers the method introduced).
  nn::TrainConfig post;
  post.epochs = 1;
  post.batch_size = 16;
  nn::Trainer post_trainer(post);
  EXPECT_TRUE(post_trainer.Fit(model.get(), task.train).ok());
}

StrategySpec LmaSpec() {
  return {"LMA",
          {{"HP1", "0.5"},
           {"HP2", "0.2"},
           {"HP3", "4"},
           {"HP4", "3"},
           {"HP5", "0.5"}}};
}
StrategySpec LegrSpec() {
  return {"LeGR",
          {{"HP1", "0.5"},
           {"HP2", "0.2"},
           {"HP6", "0.9"},
           {"HP7", "0.4"},
           {"HP8", "l2_weight"}}};
}
StrategySpec NsSpec() {
  return {"NS", {{"HP1", "0.5"}, {"HP2", "0.2"}, {"HP6", "0.9"}}};
}
StrategySpec SfpSpec() {
  return {"SFP", {{"HP2", "0.2"}, {"HP9", "0.5"}, {"HP10", "1"}}};
}
StrategySpec HosSpec() {
  return {"HOS",
          {{"HP1", "0.5"},
           {"HP2", "0.2"},
           {"HP11", "P2"},
           {"HP12", "skew_kur"},
           {"HP13", "0.3"},
           {"HP14", "3"}}};
}
StrategySpec LfbSpec() {
  return {"LFB",
          {{"HP1", "0.5"}, {"HP2", "0.2"}, {"HP15", "1"}, {"HP16", "MSE"}}};
}

INSTANTIATE_TEST_SUITE_P(
    Methods, MethodEndToEndTest,
    ::testing::Values(MethodCase{LmaSpec(), "resnet", 20},
                      MethodCase{LegrSpec(), "vgg", 13},
                      MethodCase{NsSpec(), "vgg", 13},
                      MethodCase{SfpSpec(), "resnet", 20},
                      MethodCase{HosSpec(), "vgg", 13},
                      MethodCase{LfbSpec(), "resnet", 20}),
    [](const ::testing::TestParamInfo<MethodCase>& info) {
      return info.param.spec.method;
    });

// Sequential composition: two different strategies applied back to back
// (the core premise of AutoMC's search space).
TEST(MethodCompositionTest, NsThenSfp) {
  data::TaskData task = SmallTask();
  auto model = MakeModel("vgg", 13, 31);
  CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 2;
  ctx.batch_size = 16;
  ctx.seed = 11;

  int64_t params0 = model->ParamCount();
  auto ns = CreateCompressor(NsSpec());
  ASSERT_TRUE(ns.ok());
  CompressionStats s1;
  ASSERT_TRUE((*ns)->Compress(model.get(), ctx, &s1).ok());
  auto sfp = CreateCompressor(SfpSpec());
  ASSERT_TRUE(sfp.ok());
  CompressionStats s2;
  ASSERT_TRUE((*sfp)->Compress(model.get(), ctx, &s2).ok());

  double total = 1.0 - static_cast<double>(model->ParamCount()) / params0;
  EXPECT_GT(total, s1.ParamReduction());
  EXPECT_GT(total, 0.25);
}

// An identity layer that counts the eval-mode forwards through it.
class EvalForwardCounter : public nn::Layer {
 public:
  explicit EvalForwardCounter(int* count) : count_(count) {}
  Tensor Forward(const Tensor& x, bool training) override {
    if (!training) ++*count_;
    return x;
  }
  Tensor Backward(const Tensor& grad_out) override { return grad_out; }
  std::unique_ptr<nn::Layer> Clone() const override {
    return std::make_unique<EvalForwardCounter>(count_);
  }
  std::string Name() const override { return "EvalForwardCounter"; }

 private:
  int* count_;
};

// The evaluator and ExecuteScheme pass null stats: a compressor run for
// them must not evaluate the model on the test split before and after.
TEST(MeasureAroundTest, NullStatsMeasuresNothing) {
  data::TaskData task = SmallTask();
  auto model = MakeModel("vgg", 13, 41);
  int eval_forwards = 0;
  model->net()->Add(std::make_unique<EvalForwardCounter>(&eval_forwards));
  CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 1;
  ctx.batch_size = 16;

  auto qt =
      CreateCompressor(StrategySpec{"QT", {{"HP1", "0.1"}, {"HP17", "8"}}});
  ASSERT_TRUE(qt.ok());
  ASSERT_TRUE((*qt)->Compress(model.get(), ctx, nullptr).ok());
  EXPECT_EQ(eval_forwards, 0);

  CompressionStats stats;
  ASSERT_TRUE(
      MeasureAround(model.get(), ctx, [] { return Status::OK(); }, &stats)
          .ok());
  EXPECT_GT(eval_forwards, 0);
  EXPECT_EQ(stats.acc_before, stats.acc_after);
}

}  // namespace
}  // namespace compress
}  // namespace automc
