#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/durable.h"
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
  auto loaded = DeserializeModel(buf.str());
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
  auto loaded = DeserializeModel(buf.str());
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
  auto loaded = DeserializeModel(buf.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameOutputs(model.get(), loaded->get());
}

TEST(SerializeTest, SurvivesLmaActivations) {
  auto model = MakeModel("resnet", 20);
  LMAActivation proto(5, 2.0f);
  compress::ReplaceAllActivations(model.get(), proto);
  std::stringstream buf;
  ASSERT_TRUE(SerializeModel(model.get(), &buf).ok());
  auto loaded = DeserializeModel(buf.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameOutputs(model.get(), loaded->get());
}

TEST(SerializeTest, PreservesWeightBits) {
  auto model = MakeModel("vgg", 13);
  model->set_weight_bits(8);
  std::stringstream buf;
  ASSERT_TRUE(SerializeModel(model.get(), &buf).ok());
  auto loaded = DeserializeModel(buf.str());
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
  auto loaded = DeserializeModel(buf.str());
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
  auto loaded = DeserializeModel(buf.str());
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
  EXPECT_FALSE(DeserializeModel(buf.str()).ok());
}

TEST(SerializeTest, RejectsTruncatedStream) {
  auto model = MakeModel("vgg", 13);
  std::stringstream buf;
  ASSERT_TRUE(SerializeModel(model.get(), &buf).ok());
  std::string bytes = buf.str();
  EXPECT_FALSE(DeserializeModel(bytes.substr(0, bytes.size() / 2)).ok());
}

TEST(SerializeTest, MissingFileIsNotFound) {
  auto loaded = LoadModel("/nonexistent/automc.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// Layer tags of the model format (src/nn/serialize.cc), spelled out so the
// hostile files below are byte-exact.
constexpr uint32_t kTagConv2d = 1;
constexpr uint32_t kTagLinear = 2;
constexpr uint32_t kTagBatchNorm = 3;
constexpr uint32_t kTagReLU = 4;
constexpr uint32_t kTagLma = 5;
constexpr uint32_t kTagSequential = 9;
constexpr uint32_t kTagResidualBlock = 10;
constexpr uint32_t kTagLowRankConv = 11;
constexpr uint32_t kTagAbsent = 0xffff;

// Magic, version and ModelSpec: everything before the root layer.
void WriteHeader(ByteWriter* w, int64_t depth = 20) {
  w->U32(0x4d434d41);  // "AMCM"
  w->U32(1);
  w->Str("resnet");
  for (int64_t field : std::initializer_list<int64_t>{depth, 10, 16, 3, 32}) {
    w->I64(field);  // depth..image
  }
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
  auto loaded = DeserializeModel(w.str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// A tensor of zeros, in the format's tensor encoding.
void WriteZeros(ByteWriter* w, const std::vector<int64_t>& shape) {
  w->U32(static_cast<uint32_t>(shape.size()));
  int64_t n = 1;
  for (int64_t d : shape) {
    w->I64(d);
    n *= d;
  }
  for (int64_t i = 0; i < n; ++i) w->F32(0.0f);
}
void WriteVector(ByteWriter* w, int64_t n) { WriteZeros(w, {n}); }

// A model file whose root Sequential holds the one layer `layer` writes.
std::string OneLayerModel(const std::function<void(ByteWriter*)>& layer) {
  ByteWriter w;
  WriteHeader(&w);
  w.U32(kTagSequential);
  w.I64(1);
  layer(&w);
  return w.Take();
}

void ExpectRefused(const std::string& blob) {
  auto loaded = DeserializeModel(blob);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RefusesConvHeadersTheWeightsDoNotBack) {
  // Each header is refused before a layer is built: a non-positive field
  // used to abort in the Conv2d constructor, and 2^40 output channels used
  // to size a zero-filled weight tensor before the weights were read.
  const std::vector<std::vector<int64_t>> headers = {
      {0, 16, 3, 1, 1},                 // in_c
      {3, -16, 3, 1, 1},                // out_c
      {3, 16, 0, 1, 0},                 // kernel
      {3, 16, 3, 0, 1},                 // stride
      {3, 16, 3, 1, -1},                // pad
      {3, int64_t{1} << 40, 3, 1, 1},   // out_c far beyond the weights
      {1, 1, int64_t{1} << 32, 1, 0}};  // kernel*kernel overflows
  for (const std::vector<int64_t>& header : headers) {
    ExpectRefused(OneLayerModel([&](ByteWriter* w) {
      w->U32(kTagConv2d);
      for (int64_t field : header) w->I64(field);
      w->U32(0);  // no bias
      WriteZeros(w, {16, 3, 3, 3});
    }));
  }
}

TEST(SerializeTest, RefusesLinearHeadersTheWeightsDoNotBack) {
  for (int64_t in_f : {int64_t{0}, int64_t{-4}, int64_t{1} << 40}) {
    ExpectRefused(OneLayerModel([&](ByteWriter* w) {
      w->U32(kTagLinear);
      w->I64(in_f);
      w->I64(5);
      WriteZeros(w, {5, 4});
      WriteVector(w, 5);
    }));
  }
}

TEST(SerializeTest, RefusesBatchNormWithShortOrMissingStatistics) {
  // gamma matches the channel count; a shorter beta, running mean or
  // running var used to load, and inference then read past its end.
  for (int shorter = 0; shorter < 4; ++shorter) {
    ExpectRefused(OneLayerModel([&](ByteWriter* w) {
      w->U32(kTagBatchNorm);
      w->I64(8);
      for (int t = 0; t < 4; ++t) WriteVector(w, t == shorter ? 2 : 8);
    }));
  }
  // Channel counts no tensor can back: the constructor used to abort on
  // zero and to allocate 2^40 floats before reading anything.
  for (int64_t channels : {int64_t{0}, int64_t{1} << 40}) {
    ExpectRefused(OneLayerModel([&](ByteWriter* w) {
      w->U32(kTagBatchNorm);
      w->I64(channels);
      for (int t = 0; t < 4; ++t) WriteVector(w, 8);
    }));
  }
}

TEST(SerializeTest, RefusesLmaWithoutOneOffsetOrAFiniteBound) {
  const auto lma = [](float bound, int64_t offsets) {
    return OneLayerModel([=](ByteWriter* w) {
      w->U32(kTagLma);
      w->I64(4);  // segments
      w->F32(bound);
      WriteVector(w, 4);  // slopes
      WriteVector(w, offsets);
    });
  };
  auto loaded = DeserializeModel(lma(1.0f, 1));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Each of these used to load. Forward reads offset[0], past the end of an
  // empty offset, and an infinite or NaN bound makes every input's segment
  // index a NaN converted to an integer.
  ExpectRefused(lma(1.0f, 0));
  ExpectRefused(lma(1.0f, 2));
  ExpectRefused(lma(std::numeric_limits<float>::infinity(), 1));
  ExpectRefused(lma(std::numeric_limits<float>::quiet_NaN(), 1));
}

// A basic residual block over 4 channels, written member by member;
// `skip` names one member (0..10, in file order) to write as absent.
void WriteBasicBlock(ByteWriter* w, uint32_t kind, int skip) {
  w->U32(kTagResidualBlock);
  w->U32(kind);
  for (int64_t field : {4, 4, 1}) w->I64(field);  // in, out, stride
  const auto conv = [w] {
    w->U32(kTagConv2d);
    for (int64_t field : {4, 4, 3, 1, 1}) w->I64(field);
    w->U32(0);  // no bias
    WriteZeros(w, {4, 4, 3, 3});
  };
  const auto bn = [w] {
    w->U32(kTagBatchNorm);
    w->I64(4);
    for (int t = 0; t < 4; ++t) WriteVector(w, 4);
  };
  const auto relu = [w] { w->U32(kTagReLU); };
  const auto absent = [w] { w->U32(kTagAbsent); };
  // conv1 bn1 act1 conv2 bn2 act2 conv3 bn3 act_out downsample conv, bn
  const std::function<void()> members[11] = {conv, bn, relu, conv, bn, absent,
                                             absent, absent, relu, absent,
                                             absent};
  for (int m = 0; m < 11; ++m) (m == skip ? absent : members[m])();
}

TEST(SerializeTest, RefusesResidualBlocksForwardCannotRun) {
  auto loaded = DeserializeModel(OneLayerModel(
      [](ByteWriter* w) { WriteBasicBlock(w, 0, /*skip=*/-1); }));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Each of these used to load, and the first forward pass dereferenced a
  // missing member: one the basic block runs, the bottleneck stage a
  // bottleneck kind runs, or the one an unknown kind was read as.
  for (int skip : {0, 1, 2, 3, 4, 8}) {
    ExpectRefused(OneLayerModel(
        [&](ByteWriter* w) { WriteBasicBlock(w, 0, skip); }));
  }
  for (uint32_t kind : {1u, 7u}) {
    ExpectRefused(OneLayerModel(
        [&](ByteWriter* w) { WriteBasicBlock(w, kind, /*skip=*/-1); }));
  }
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
  auto loaded = DeserializeModel(w.str());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RefusesFilesThatWouldNotReencodeToTheSameBytes) {
  // Each of these used to load, and writing the loaded model back out gave
  // other bytes: a flag of 2 read as true, a weight reshaped to its header,
  // a depth narrowed to int, bytes after the root layer ignored.
  const auto conv = [](uint32_t has_bias, std::vector<int64_t> shape) {
    return OneLayerModel([=](ByteWriter* w) {
      w->U32(kTagConv2d);
      for (int64_t field : {3, 16, 3, 1, 1}) w->I64(field);  // in..pad
      w->U32(has_bias);
      WriteZeros(w, shape);
      if (has_bias != 0) WriteVector(w, 16);
    });
  };
  ASSERT_TRUE(DeserializeModel(conv(1, {16, 3, 3, 3})).ok());
  ExpectRefused(conv(2, {16, 3, 3, 3}));
  ExpectRefused(conv(0, {16 * 3 * 3 * 3}));
  ExpectRefused(conv(0, {16, 3, 9}));
  ByteWriter wide;
  WriteHeader(&wide, /*depth=*/int64_t{1} << 32);
  wide.U32(kTagSequential);
  wide.I64(0);
  ExpectRefused(wide.str());
  ExpectRefused(OneLayerModel([](ByteWriter* w) { w->U32(kTagReLU); }) + '\0');
}

TEST(SerializeTest, RefusesLowRankStagesThatDoNotChain) {
  // The LowRankConv constructor aborts the process on such stages.
  ExpectRefused(OneLayerModel([](ByteWriter* w) {
    w->U32(kTagLowRankConv);
    w->I64(2);
    for (int64_t in_c : {3, 4}) {  // the first stage outputs 2, not 4
      w->U32(kTagConv2d);
      for (int64_t field : std::initializer_list<int64_t>{in_c, 2, 1, 1, 0}) {
        w->I64(field);  // in..pad
      }
      w->U32(0);
      WriteZeros(w, {2, in_c, 1, 1});
    }
  }));
}

// The decoder refuses any parameter shape the writer would not produce, so
// a method that left a parameter in another shape would publish a model
// nobody can load. Every method's output must reload and re-encode to the
// same bytes.
TEST(SerializeTest, EveryMethodsOutputReloadsToTheSameBytes) {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 5;
  cfg.train_per_class = 4;
  cfg.test_per_class = 2;
  data::TaskData task = MakeSyntheticTask(cfg);
  compress::CompressionContext ctx;
  ctx.train = &task.train;
  ctx.test = &task.test;
  ctx.pretrain_epochs = 1;
  ctx.batch_size = 8;
  const search::SearchSpace space = search::SearchSpace::Table1WithExtensions();
  std::set<std::string> methods;
  for (const compress::StrategySpec& spec : space.strategies()) {
    if (!methods.insert(spec.method).second) continue;
    for (auto [family, depth] : {std::make_pair("resnet", 20),
                                 std::make_pair("vgg", 13)}) {
      SCOPED_TRACE(spec.ToString() + " on " + family);
      auto model = MakeModel(family, depth);
      auto compressor = compress::CreateCompressor(spec);
      ASSERT_TRUE(compressor.ok());
      ASSERT_TRUE((*compressor)->Compress(model.get(), ctx, nullptr).ok());
      std::stringstream bytes;
      ASSERT_TRUE(SerializeModel(model.get(), &bytes).ok());
      auto loaded = DeserializeModel(bytes.str());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      std::stringstream again;
      ASSERT_TRUE(SerializeModel(loaded->get(), &again).ok());
      EXPECT_TRUE(again.str() == bytes.str());
    }
  }
  EXPECT_EQ(methods.size(), 7u);
}

// Model files the serializer wrote before it moved onto ByteWriter and
// ByteReader (tests/data/model). Each must decode, re-encode to the same
// bytes, and compute the logits recorded beside it on
// Randn({2, 3, 8, 8}, Rng(9)). Together they hold every layer tag, absent
// residual members, basic and bottleneck blocks, LowRankConv stages, LMA
// activations, a biased conv and 8-bit weights.
TEST(SerializeTest, GoldenModelsDecodeAndReencodeByteIdentically) {
  for (const char* name : {"vgg13_w2_pruned", "resnet20_w2_lowrank_lma_q8",
                           "resnet164_w1", "conv_bias_linear"}) {
    SCOPED_TRACE(name);
    const std::string base = std::string(AUTOMC_MODEL_FIXTURES) + "/" + name;
    auto bytes = durable::ReadFile(base + ".amcm");
    auto logits = durable::ReadFile(base + ".logits");
    ASSERT_TRUE(bytes.ok() && logits.ok());
    auto model = DeserializeModel(*bytes);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    std::stringstream again;
    ASSERT_TRUE(SerializeModel(model->get(), &again).ok());
    EXPECT_TRUE(again.str() == *bytes) << "re-encoding changed the bytes";
    Rng rng(9);
    Tensor y = (*model)->Forward(Tensor::Randn({2, 3, 8, 8}, &rng), false);
    ASSERT_EQ(static_cast<size_t>(y.numel()) * sizeof(float), logits->size());
    EXPECT_EQ(std::memcmp(y.data(), logits->data(), logits->size()), 0)
        << "forward outputs differ from the recorded logits";
  }
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
