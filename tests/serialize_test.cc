#include <sstream>

#include "common/bytes.h"
#include "compress/lowrank_apply.h"
#include "compress/methods.h"
#include "compress/surgery.h"
#include "gtest/gtest.h"
#include "nn/serialize.h"
#include "search/search_space.h"
#include "nn/trainer.h"

namespace automc {
namespace nn {
namespace {

using tensor::Tensor;

ModelSpec SmallSpec(const std::string& family, int depth) {
  ModelSpec s;
  s.family = family;
  s.depth = depth;
  s.num_classes = 5;
  s.base_width = 4;
  s.in_channels = 3;
  s.image_size = 8;
  return s;
}

std::unique_ptr<Model> MakeModel(const std::string& family, int depth,
                                 uint64_t seed = 3) {
  Rng rng(seed);
  auto model = BuildModel(SmallSpec(family, depth), &rng);
  AUTOMC_CHECK(model.ok());
  return std::move(model).value();
}

void ExpectSameOutputs(Model* a, Model* b) {
  Rng rng(9);
  Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);
  Tensor ya = a->Forward(x, false);
  Tensor yb = b->Forward(x, false);
  ASSERT_EQ(ya.shape(), yb.shape());
  for (int64_t i = 0; i < ya.numel(); ++i) {
    ASSERT_FLOAT_EQ(ya[i], yb[i]) << "output diverged at " << i;
  }
}

class RoundTripTest
    : public ::testing::TestWithParam<std::pair<const char*, int>> {};

TEST_P(RoundTripTest, BitExactThroughStream) {
  auto [family, depth] = GetParam();
  auto model = MakeModel(family, depth);
  std::stringstream buf;
  ASSERT_TRUE(SerializeModel(model.get(), &buf).ok());
  auto loaded = DeserializeModel(&buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->spec().family, family);
  EXPECT_EQ((*loaded)->spec().depth, depth);
  EXPECT_EQ((*loaded)->ParamCount(), model->ParamCount());
  ExpectSameOutputs(model.get(), loaded->get());
}

INSTANTIATE_TEST_SUITE_P(Models, RoundTripTest,
                         ::testing::Values(std::make_pair("resnet", 20),
                                           std::make_pair("resnet", 164),
                                           std::make_pair("vgg", 13),
                                           std::make_pair("vgg", 19)));

TEST(SerializeTest, SurvivesPruningSurgery) {
  auto model = MakeModel("vgg", 13);
  compress::GlobalPruneOptions opts;
  opts.target_param_fraction = 0.3;
  ASSERT_TRUE(
      compress::GlobalStructuredPrune(model.get(), opts, compress::FilterL2)
          .ok());
  std::stringstream buf;
  ASSERT_TRUE(SerializeModel(model.get(), &buf).ok());
  auto loaded = DeserializeModel(&buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->ParamCount(), model->ParamCount());
  ExpectSameOutputs(model.get(), loaded->get());
}

TEST(SerializeTest, SurvivesLowRankSurgery) {
  auto model = MakeModel("resnet", 20);
  ASSERT_TRUE(compress::ApplyLowRankGlobal(model.get(), 0.25,
                                           compress::DecompKind::kHooi)
                  .ok());
  std::stringstream buf;
  ASSERT_TRUE(SerializeModel(model.get(), &buf).ok());
  auto loaded = DeserializeModel(&buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameOutputs(model.get(), loaded->get());
}

TEST(SerializeTest, SurvivesLmaActivations) {
  auto model = MakeModel("resnet", 20);
  LMAActivation proto(5, 2.0f);
  compress::ReplaceAllActivations(model.get(), proto);
  std::stringstream buf;
  ASSERT_TRUE(SerializeModel(model.get(), &buf).ok());
  auto loaded = DeserializeModel(&buf);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameOutputs(model.get(), loaded->get());
}

TEST(SerializeTest, PreservesWeightBits) {
  auto model = MakeModel("vgg", 13);
  model->set_weight_bits(8);
  std::stringstream buf;
  ASSERT_TRUE(SerializeModel(model.get(), &buf).ok());
  auto loaded = DeserializeModel(&buf);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->weight_bits(), 8);
  EXPECT_EQ((*loaded)->EffectiveParamCount(), model->EffectiveParamCount());
}

TEST(SerializeTest, PreservesBatchNormRunningStats) {
  // Running stats matter for eval-mode behavior; train a bit so they move.
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 5;
  cfg.train_per_class = 8;
  cfg.test_per_class = 2;
  data::TaskData task = MakeSyntheticTask(cfg);
  auto model = MakeModel("vgg", 13);
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 8;
  Trainer trainer(tc);
  ASSERT_TRUE(trainer.Fit(model.get(), task.train).ok());

  std::stringstream buf;
  ASSERT_TRUE(SerializeModel(model.get(), &buf).ok());
  auto loaded = DeserializeModel(&buf);
  ASSERT_TRUE(loaded.ok());
  ExpectSameOutputs(model.get(), loaded->get());
}

TEST(SerializeTest, LoadedModelIsTrainable) {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 5;
  cfg.train_per_class = 8;
  cfg.test_per_class = 2;
  data::TaskData task = MakeSyntheticTask(cfg);
  auto model = MakeModel("resnet", 20);
  std::stringstream buf;
  ASSERT_TRUE(SerializeModel(model.get(), &buf).ok());
  auto loaded = DeserializeModel(&buf);
  ASSERT_TRUE(loaded.ok());
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 8;
  Trainer trainer(tc);
  EXPECT_TRUE(trainer.Fit(loaded->get(), task.train).ok());
}

TEST(SerializeTest, FileRoundTrip) {
  auto model = MakeModel("resnet", 20);
  std::string path = ::testing::TempDir() + "/automc_model.bin";
  ASSERT_TRUE(SaveModel(model.get(), path).ok());
  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameOutputs(model.get(), loaded->get());
}

TEST(SerializeTest, RejectsGarbage) {
  std::stringstream buf;
  buf << "this is not a model";
  EXPECT_FALSE(DeserializeModel(&buf).ok());
}

TEST(SerializeTest, RejectsTruncatedStream) {
  auto model = MakeModel("vgg", 13);
  std::stringstream buf;
  ASSERT_TRUE(SerializeModel(model.get(), &buf).ok());
  std::string bytes = buf.str();
  std::stringstream cut;
  cut << bytes.substr(0, bytes.size() / 2);
  EXPECT_FALSE(DeserializeModel(&cut).ok());
}

TEST(SerializeTest, MissingFileIsNotFound) {
  auto loaded = LoadModel("/nonexistent/automc.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// Layer tags of the model format (src/nn/serialize.cc), spelled out so the
// hostile files below are byte-exact.
constexpr uint32_t kTagConv2d = 1;
constexpr uint32_t kTagReLU = 4;
constexpr uint32_t kTagSequential = 9;

// Magic, version and ModelSpec: everything before the root layer.
void WriteHeader(ByteWriter* w) {
  w->U32(0x4d434d41);  // "AMCM"
  w->U32(1);
  w->Str("resnet");
  for (int64_t field : {20, 10, 16, 3, 32}) w->I64(field);  // depth..image
  w->I64(32);  // weight bits
}

TEST(SerializeTest, RefusesTensorLargerThanTheStream) {
  // The first Conv2d weight declares shape [2^24, 2^24]: each dim passes
  // the per-dim bound, but 2^48 floats must be refused before allocation.
  ByteWriter w;
  WriteHeader(&w);
  w.U32(kTagSequential);
  w.I64(1);
  w.U32(kTagConv2d);
  for (int64_t field : {3, 16, 3, 1, 1}) w.I64(field);  // in..pad
  w.U32(0);  // no bias
  w.U32(2);  // weight rank
  w.I64(int64_t{1} << 24);
  w.I64(int64_t{1} << 24);
  ASSERT_EQ(w.str().size(), 146u);
  std::stringstream in(w.str());
  auto loaded = DeserializeModel(&in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RefusesNestingDeeperThanAnyModel) {
  // 5,000 nested Sequential layers would exhaust the stack of a decoder
  // that recursed without a bound.
  ByteWriter w;
  WriteHeader(&w);
  for (int i = 0; i < 5000; ++i) {
    w.U32(kTagSequential);
    w.I64(1);
  }
  w.U32(kTagReLU);
  ASSERT_EQ(w.str().size(), 60070u);
  std::stringstream in(w.str());
  auto loaded = DeserializeModel(&in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Quantization extension method

TEST(QuantTest, ReducesEffectiveParamsAndKeepsFunction) {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 16;
  cfg.test_per_class = 6;
  data::TaskData task = MakeSyntheticTask(cfg);
  ModelSpec spec = SmallSpec("vgg", 13);
  spec.num_classes = 4;
  Rng rng(5);
  auto model = std::move(BuildModel(spec, &rng)).value();
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 16;
  Trainer trainer(tc);
  ASSERT_TRUE(trainer.Fit(model.get(), task.train).ok());

  compress::CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 2;
  ctx.batch_size = 16;

  compress::StrategySpec spec8{"QT", {{"HP1", "0.5"}, {"HP17", "8"}}};
  auto compressor = compress::CreateCompressor(spec8);
  ASSERT_TRUE(compressor.ok());
  compress::CompressionStats stats;
  ASSERT_TRUE((*compressor)->Compress(model.get(), ctx, &stats).ok());
  // 8-bit weights: effective params = raw / 4.
  EXPECT_NEAR(stats.ParamReduction(), 0.75, 0.01);
  EXPECT_EQ(model->weight_bits(), 8);
  EXPECT_GT(stats.acc_after, 0.0);
  // Weight values lie on the quantization grid per tensor (spot check: not
  // more distinct values than 2^8 per parameter tensor).
  for (Param* p : model->Params()) {
    std::set<float> values;
    for (int64_t i = 0; i < p->value.numel(); ++i) values.insert(p->value[i]);
    EXPECT_LE(values.size(), 256u);
  }
}

TEST(QuantTest, RefusesRequantizationToMoreBits) {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 3;
  cfg.train_per_class = 8;
  cfg.test_per_class = 3;
  data::TaskData task = MakeSyntheticTask(cfg);
  ModelSpec spec = SmallSpec("vgg", 13);
  spec.num_classes = 3;
  Rng rng(6);
  auto model = std::move(BuildModel(spec, &rng)).value();
  model->set_weight_bits(4);

  compress::CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  compress::StrategySpec spec8{"QT", {{"HP1", "0.1"}, {"HP17", "8"}}};
  auto compressor = compress::CreateCompressor(spec8);
  ASSERT_TRUE(compressor.ok());
  Status st = (*compressor)->Compress(model.get(), ctx, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(QuantTest, ExtensionSpaceIncludesQt) {
  automc::search::SearchSpace ext =
      automc::search::SearchSpace::Table1WithExtensions();
  automc::search::SearchSpace base =
      automc::search::SearchSpace::FullTable1();
  EXPECT_EQ(ext.size(), base.size() + 15);  // 5 HP1 x 3 HP17
  bool found = false;
  for (const auto& s : ext.strategies()) {
    if (s.method == "QT") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(QuantTest, RejectsBadBits) {
  compress::StrategySpec bad{"QT", {{"HP1", "0.1"}, {"HP17", "1"}}};
  auto compressor = compress::CreateCompressor(bad);
  ASSERT_TRUE(compressor.ok());  // construction defers validation
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 2;
  cfg.train_per_class = 4;
  cfg.test_per_class = 2;
  data::TaskData task = MakeSyntheticTask(cfg);
  ModelSpec spec = SmallSpec("vgg", 13);
  spec.num_classes = 2;
  Rng rng(7);
  auto model = std::move(BuildModel(spec, &rng)).value();
  compress::CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  EXPECT_FALSE((*compressor)->Compress(model.get(), ctx, nullptr).ok());
}

}  // namespace
}  // namespace nn
}  // namespace automc
