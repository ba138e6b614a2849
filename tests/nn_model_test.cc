#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "common/metrics.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "nn/visit.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "test_util.h"

namespace automc {
namespace nn {
namespace {

using tensor::Tensor;

int64_t CowCounter(const char* name) {
  return metrics::MetricsRegistry::Global().GetCounter(name).value();
}

ModelSpec SmallSpec(const std::string& family, int depth) {
  ModelSpec s;
  s.family = family;
  s.depth = depth;
  s.num_classes = 10;
  s.base_width = 4;
  s.in_channels = 3;
  s.image_size = 8;
  return s;
}

class ResNetDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(ResNetDepthTest, BuildsAndForwards) {
  Rng rng(1);
  auto model = BuildResNet(SmallSpec("resnet", GetParam()), &rng);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);
  Tensor logits = (*model)->Forward(x, false);
  EXPECT_EQ(logits.size(0), 2);
  EXPECT_EQ(logits.size(1), 10);
  EXPECT_GT((*model)->ParamCount(), 0);
  EXPECT_GT((*model)->FlopsPerSample(), 0);
}

INSTANTIATE_TEST_SUITE_P(Depths, ResNetDepthTest,
                         ::testing::Values(20, 56, 164));

TEST(ResNetTest, InvalidDepthRejected) {
  Rng rng(1);
  auto model = BuildResNet(SmallSpec("resnet", 21), &rng);
  EXPECT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResNetTest, DeeperHasMoreParams) {
  Rng rng(1);
  auto m20 = BuildResNet(SmallSpec("resnet", 20), &rng);
  auto m56 = BuildResNet(SmallSpec("resnet", 56), &rng);
  ASSERT_TRUE(m20.ok() && m56.ok());
  EXPECT_GT((*m56)->ParamCount(), (*m20)->ParamCount());
}

TEST(ResNetTest, BlockCountMatchesDepthFormula) {
  Rng rng(1);
  auto model = BuildResNet(SmallSpec("resnet", 56), &rng);
  ASSERT_TRUE(model.ok());
  int blocks = 0;
  VisitLayers((*model)->net(), [&blocks](Layer* l) {
    if (dynamic_cast<ResidualBlock*>(l) != nullptr) ++blocks;
  });
  EXPECT_EQ(blocks, 27);  // (56-2)/6 per stage * 3 stages
}

TEST(ResNet164Test, UsesBottleneckBlocks) {
  Rng rng(1);
  auto model = BuildResNet(SmallSpec("resnet", 164), &rng);
  ASSERT_TRUE(model.ok());
  int bottlenecks = 0;
  VisitLayers((*model)->net(), [&bottlenecks](Layer* l) {
    auto* b = dynamic_cast<ResidualBlock*>(l);
    if (b != nullptr && b->kind() == ResidualBlock::Kind::kBottleneck) {
      ++bottlenecks;
    }
  });
  EXPECT_EQ(bottlenecks, 54);  // (164-2)/9 per stage * 3 stages
}

class VggDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(VggDepthTest, BuildsAndForwards) {
  Rng rng(2);
  ModelSpec spec = SmallSpec("vgg", GetParam());
  spec.num_classes = 20;
  auto model = BuildVgg(spec, &rng);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  Tensor x = Tensor::Randn({2, 3, 8, 8}, &rng);
  Tensor logits = (*model)->Forward(x, false);
  EXPECT_EQ(logits.size(1), 20);
}

INSTANTIATE_TEST_SUITE_P(Depths, VggDepthTest, ::testing::Values(13, 16, 19));

TEST(VggTest, ConvCountMatchesDepth) {
  Rng rng(2);
  for (int depth : {13, 16, 19}) {
    auto model = BuildVgg(SmallSpec("vgg", depth), &rng);
    ASSERT_TRUE(model.ok());
    int convs = 0;
    VisitLayers((*model)->net(), [&convs](Layer* l) {
      if (dynamic_cast<Conv2d*>(l) != nullptr) ++convs;
    });
    // VGG-n has n-3 conv layers (rest are the classifier FCs in the paper;
    // we use a single linear head).
    EXPECT_EQ(convs, depth - 3) << "depth " << depth;
  }
}

TEST(ModelTest, CloneIsIndependent) {
  Rng rng(3);
  auto model = BuildResNet(SmallSpec("resnet", 20), &rng);
  ASSERT_TRUE(model.ok());
  auto copy = (*model)->Clone();
  // Mutate the copy's params; original unchanged.
  for (Param* p : copy->Params()) p->value.Fill(0.0f);
  Tensor x = Tensor::Randn({1, 3, 8, 8}, &rng);
  Tensor y_orig = (*model)->Forward(x, false);
  EXPECT_GT(y_orig.L2NormSquared(), 0.0f);
  Tensor y_copy = copy->Forward(x, false);
  EXPECT_FLOAT_EQ(y_copy.L2NormSquared(), 0.0f);
}

// Clone must be a pure buffer alias: zero bytes copied, every parameter
// sharing its source's buffer. This is the regression fence that keeps
// hidden deep copies out of the speculative-evaluation path.
TEST(ModelTest, CloneIsO1CowAlias) {
  Rng rng(3);
  auto model = BuildResNet(SmallSpec("resnet", 20), &rng);
  ASSERT_TRUE(model.ok());

  int64_t mat0 = CowCounter("tensor.cow_materializations");
  int64_t copies0 = CowCounter("tensor.cow_copies");
  auto copy = (*model)->Clone();
  EXPECT_EQ(CowCounter("tensor.cow_materializations"), mat0)
      << "Model::Clone materialized a buffer — a deep copy crept in";
  EXPECT_GT(CowCounter("tensor.cow_copies"), copies0);

  std::vector<Param*> src = (*model)->Params();
  std::vector<Param*> dst = copy->Params();
  ASSERT_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    EXPECT_TRUE(dst[i]->value.SharesBufferWith(src[i]->value))
        << "param " << i << " was deep-copied by Clone";
  }
}

// Training a clone must leave every source byte untouched, and the COW
// traffic it generates must be bounded by the model's tensor count — not
// by the number of optimizer steps (each shared tensor materializes at
// most once, then stays private).
TEST(ModelTest, TrainedCloneLeavesSourceBytesUntouched) {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 2;
  cfg.train_per_class = 8;
  cfg.test_per_class = 2;
  data::TaskData task = MakeSyntheticTask(cfg);

  Rng rng(9);
  ModelSpec spec = SmallSpec("vgg", 13);
  spec.num_classes = 2;
  auto model = BuildVgg(spec, &rng);
  ASSERT_TRUE(model.ok());

  std::vector<std::vector<float>> before;
  for (Param* p : (*model)->Params()) {
    before.emplace_back(p->value.data(), p->value.data() + p->value.numel());
  }

  auto copy = (*model)->Clone();
  int64_t mat0 = CowCounter("tensor.cow_materializations");
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 8;
  Trainer trainer(tc);
  ASSERT_TRUE(trainer.Fit(copy.get(), task.train).ok());

  // Every shared tensor (param value/grad, BN stats, optimizer moments)
  // materializes at most once across the whole run; a per-step deep copy
  // would blow far past this bound.
  int64_t params = static_cast<int64_t>((*model)->Params().size());
  EXPECT_LE(CowCounter("tensor.cow_materializations") - mat0, 6 * params + 16);

  std::vector<Param*> src = (*model)->Params();
  ASSERT_EQ(src.size(), before.size());
  for (size_t i = 0; i < src.size(); ++i) {
    const float* d = src[i]->value.data();
    for (int64_t j = 0; j < src[i]->value.numel(); ++j) {
      ASSERT_EQ(d[j], before[i][static_cast<size_t>(j)])
          << "training the clone dirtied source param " << i;
    }
  }
}

// Serialization reads shared buffers and deserialization writes only
// freshly allocated ones: neither direction may materialize a COW copy.
TEST(ModelTest, SerializeRoundTripIsCowFree) {
  Rng rng(11);
  auto model = BuildVgg(SmallSpec("vgg", 13), &rng);
  ASSERT_TRUE(model.ok());
  auto alias = (*model)->Clone();  // ensure the buffers really are shared

  int64_t mat0 = CowCounter("tensor.cow_materializations");
  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(SerializeModel(model->get(), &blob).ok());
  auto restored = DeserializeModel(blob.str());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(CowCounter("tensor.cow_materializations"), mat0)
      << "serialize/deserialize should never copy shared buffers";

  std::vector<Param*> src = (*model)->Params();
  std::vector<Param*> dst = (*restored)->Params();
  ASSERT_EQ(src.size(), dst.size());
  for (size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(src[i]->value.numel(), dst[i]->value.numel());
    const float* a = src[i]->value.data();
    const float* b = dst[i]->value.data();
    for (int64_t j = 0; j < src[i]->value.numel(); ++j) {
      ASSERT_EQ(a[j], b[j]) << "param " << i << " byte mismatch";
    }
  }
}

// Adam checkpointing: SaveState only reads, LoadState fills fresh
// buffers. Zero COW materializations either way.
TEST(ModelTest, AdamStateRoundTripIsCowFree) {
  Rng rng(12);
  auto model = BuildResNet(SmallSpec("resnet", 20), &rng);
  ASSERT_TRUE(model.ok());
  std::vector<Param*> params = (*model)->Params();

  Adam adam(0.001f);
  for (Param* p : params) p->grad.Fill(0.01f);
  adam.Step(params);
  adam.Step(params);

  int64_t mat0 = CowCounter("tensor.cow_materializations");
  ByteWriter w;
  adam.SaveState(params, &w);
  std::string blob = w.Take();

  Adam fresh(0.001f);
  ByteReader r(blob);
  ASSERT_TRUE(fresh.LoadState(params, &r));
  EXPECT_EQ(CowCounter("tensor.cow_materializations"), mat0)
      << "Adam state save/load should never copy shared buffers";

  // The restored moments are bit-identical: re-saving them reproduces the
  // original blob.
  ByteWriter w2;
  fresh.SaveState(params, &w2);
  EXPECT_EQ(blob, w2.Take());
}

TEST(ModelTest, BuildModelDispatch) {
  Rng rng(4);
  EXPECT_TRUE(BuildModel(SmallSpec("resnet", 20), &rng).ok());
  EXPECT_TRUE(BuildModel(SmallSpec("vgg", 16), &rng).ok());
  EXPECT_FALSE(BuildModel(SmallSpec("alexnet", 8), &rng).ok());
}

// --------------------------------------------------------------------------
// Trainer end-to-end: a small model must learn the synthetic task.

TEST(TrainerTest, LearnsSyntheticTask) {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 4;
  cfg.train_per_class = 24;
  cfg.test_per_class = 8;
  cfg.noise = 0.25f;
  cfg.seed = 13;
  data::TaskData task = MakeSyntheticTask(cfg);

  Rng rng(5);
  ModelSpec spec = SmallSpec("resnet", 20);
  spec.num_classes = 4;
  auto model = BuildResNet(spec, &rng);
  ASSERT_TRUE(model.ok());

  double acc_before = Trainer::Evaluate(model->get(), task.test);

  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 16;
  tc.lr = 0.05f;
  tc.seed = 3;
  Trainer trainer(tc);
  float final_loss = 0.0f;
  Status st = trainer.Fit(model->get(), task.train, nullptr, nullptr,
                          &final_loss);
  ASSERT_TRUE(st.ok()) << st.ToString();

  double acc_after = Trainer::Evaluate(model->get(), task.test);
  EXPECT_GT(acc_after, acc_before + 0.15)
      << "before=" << acc_before << " after=" << acc_after
      << " loss=" << final_loss;
}

TEST(TrainerTest, RejectsBadConfig) {
  Rng rng(6);
  auto model = BuildResNet(SmallSpec("resnet", 20), &rng);
  ASSERT_TRUE(model.ok());
  data::Dataset empty;
  Trainer trainer(TrainConfig{});
  EXPECT_FALSE(trainer.Fit(model->get(), empty).ok());
  EXPECT_FALSE(trainer.Fit(nullptr, empty).ok());
}

TEST(TrainerTest, EpochHookRuns) {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 2;
  cfg.train_per_class = 8;
  cfg.test_per_class = 2;
  data::TaskData task = MakeSyntheticTask(cfg);
  Rng rng(7);
  auto model = BuildResNet(SmallSpec("resnet", 20), &rng);
  ASSERT_TRUE(model.ok());
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 8;
  Trainer trainer(tc);
  int hooks = 0;
  ASSERT_TRUE(trainer
                  .Fit(model->get(), task.train, nullptr,
                       [&hooks](int, Model*) { ++hooks; })
                  .ok());
  EXPECT_EQ(hooks, 3);
}

TEST(TrainerTest, BnGammaL1ShrinksGammas) {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 2;
  cfg.train_per_class = 16;
  cfg.test_per_class = 2;
  data::TaskData task = MakeSyntheticTask(cfg);
  Rng rng(8);
  ModelSpec spec = SmallSpec("vgg", 13);
  spec.num_classes = 2;

  auto sum_gammas = [](Model* m) {
    double s = 0.0;
    VisitLayers(m->net(), [&s](Layer* l) {
      if (auto* bn = dynamic_cast<BatchNorm2d*>(l)) {
        for (int64_t i = 0; i < bn->gamma().value.numel(); ++i) {
          s += std::fabs(bn->gamma().value[i]);
        }
      }
    });
    return s;
  };

  auto plain = BuildVgg(spec, &rng);
  Rng rng2(8);
  auto sparse = BuildVgg(spec, &rng2);
  ASSERT_TRUE(plain.ok() && sparse.ok());

  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 16;
  Trainer t1(tc);
  ASSERT_TRUE(t1.Fit(plain->get(), task.train).ok());
  tc.bn_gamma_l1 = 0.02f;
  Trainer t2(tc);
  ASSERT_TRUE(t2.Fit(sparse->get(), task.train).ok());

  EXPECT_LT(sum_gammas(sparse->get()), sum_gammas(plain->get()));
}

// --------------------------------------------------------------------------
// Conv2d: the direct convolution against the per-sample unfold-and-GEMM
// algorithm

struct ConvResult {
  Tensor y, dx, dw, db;
};

// Im2Col and Col2Im as they were before their rows went branch-free: a
// bounds test per element.
void ReferenceIm2Col(const float* x, const tensor::ConvGeometry& g,
                     float* cols) {
  int64_t oh = g.OutH(), ow = g.OutW(), idx = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    for (int64_t ki = 0; ki < g.kernel; ++ki) {
      for (int64_t kj = 0; kj < g.kernel; ++kj) {
        for (int64_t i = 0; i < oh; ++i) {
          int64_t si = i * g.stride + ki - g.pad;
          for (int64_t j = 0; j < ow; ++j, ++idx) {
            int64_t sj = j * g.stride + kj - g.pad;
            bool in = si >= 0 && si < g.in_h && sj >= 0 && sj < g.in_w;
            cols[idx] = in ? x[(c * g.in_h + si) * g.in_w + sj] : 0.0f;
          }
        }
      }
    }
  }
}

void ReferenceCol2Im(const float* cols, const tensor::ConvGeometry& g,
                     float* dx) {
  int64_t oh = g.OutH(), ow = g.OutW(), idx = 0;
  for (int64_t c = 0; c < g.in_c; ++c) {
    for (int64_t ki = 0; ki < g.kernel; ++ki) {
      for (int64_t kj = 0; kj < g.kernel; ++kj) {
        for (int64_t i = 0; i < oh; ++i) {
          int64_t si = i * g.stride + ki - g.pad;
          for (int64_t j = 0; j < ow; ++j, ++idx) {
            int64_t sj = j * g.stride + kj - g.pad;
            if (si >= 0 && si < g.in_h && sj >= 0 && sj < g.in_w) {
              dx[(c * g.in_h + si) * g.in_w + sj] += cols[idx];
            }
          }
        }
      }
    }
  }
}

// The per-sample Conv2d: forward, one im2col + GEMM per sample; backward,
// per sample a dW partial GEMM, a dcols GEMM and a col2im, with the dW and
// db partials summed in ascending sample order.
ConvResult ReferenceConv(const Conv2d& conv, const Tensor& x,
                         const Tensor& dy) {
  int64_t n = x.size(0), in_c = conv.in_channels(), h = x.size(2),
          w = x.size(3);
  int64_t out_c = conv.out_channels(), kernel = conv.kernel();
  tensor::ConvGeometry g{in_c, h, w, kernel, conv.stride(), conv.pad()};
  int64_t p = g.OutH() * g.OutW(), ckk = in_c * kernel * kernel;
  Tensor wmat = conv.weight().value.Reshaped({out_c, ckk});
  ConvResult r;
  r.y = Tensor({n, out_c, g.OutH(), g.OutW()});
  r.dx = Tensor(x.shape());
  r.dw = Tensor::Zeros(conv.weight().value.shape());
  r.db = Tensor::Zeros({conv.has_bias() ? out_c : 0});
  Tensor dwmat({out_c, ckk});
  for (int64_t i = 0; i < n; ++i) {
    Tensor cols({ckk, p});
    ReferenceIm2Col(x.data() + i * in_c * h * w, g, cols.MutableData());
    float* yi = r.y.MutableData() + i * out_c * p;
    if (conv.has_bias()) {
      for (int64_t f = 0; f < out_c; ++f) {
        std::fill(yi + f * p, yi + (f + 1) * p, conv.bias().value[f]);
      }
    }
    tensor::GemmAccumRaw(wmat.data(), cols.data(), yi, out_c, ckk, p);

    const float* dyi = dy.data() + i * out_c * p;
    Tensor dwp({out_c, ckk});
    tensor::GemmTransposeBRaw(dyi, cols.data(), dwp.MutableData(), out_c, p,
                              ckk);
    dwmat.AddInPlace(dwp);
    Tensor dcols({ckk, p});
    tensor::GemmTransposeARaw(wmat.data(), dyi, dcols.MutableData(), ckk,
                              out_c, p);
    ReferenceCol2Im(dcols.data(), g, r.dx.MutableData() + i * in_c * h * w);
    if (conv.has_bias()) {
      Tensor dbp({out_c});
      for (int64_t f = 0; f < out_c; ++f) {
        double s = 0.0;
        for (int64_t q = 0; q < p; ++q) s += dyi[f * p + q];
        dbp[f] += static_cast<float>(s);
      }
      r.db.AddInPlace(dbp);
    }
  }
  r.dw.AddInPlace(dwmat.Reshaped(r.dw.shape()));
  return r;
}

void ExpectSameBits(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (int64_t i = 0; i < got.numel(); ++i) {
    uint32_t a, b;
    float fa = got[i], fb = want[i];
    std::memcpy(&a, &fa, sizeof a);
    std::memcpy(&b, &fb, sizeof b);
    ASSERT_EQ(a, b) << what << "[" << i << "]: " << fa << " vs " << fb;
  }
}

class ConvFoldingTest : public ::testing::TestWithParam<int> {};

// Conv2d must match the per-sample algorithm in every bit of y, dX, dW and
// db, for batches that fill the vector lanes exactly, leave the last lane
// block partly empty, or hold a single sample, and for output maps from 8x8
// down to 1x1.
TEST_P(ConvFoldingTest, MatchesPerSampleConvBitwise) {
  automc::testing::PoolGuard pool(GetParam());
  Rng rng(31);
  int cases = 0;
  for (int64_t kernel : {1, 3}) {
    for (int64_t stride : {1, 2}) {
      for (int64_t pad : {0, 1}) {
        for (int64_t size : {8, 4, 2, 1}) {
          tensor::ConvGeometry g{1, size, size, kernel, stride, pad};
          if (g.OutH() <= 0) continue;
          for (int64_t batch : {1, 3, 32, 33}) {
            for (bool bias : {false, true}) {
              SCOPED_TRACE(::testing::Message()
                           << "kernel " << kernel << " stride " << stride
                           << " pad " << pad << " size " << size << " batch "
                           << batch << " bias " << bias);
              Conv2d conv(3, 6, kernel, stride, pad, bias, &rng);
              if (bias) conv.bias().value = Tensor::Randn({6}, &rng);
              Tensor x = Tensor::Randn({batch, 3, size, size}, &rng);
              Tensor dy =
                  Tensor::Randn({batch, 6, g.OutH(), g.OutW()}, &rng);
              ConvResult want = ReferenceConv(conv, x, dy);
              Tensor y = conv.Forward(x, true);
              Tensor dx = conv.Backward(dy);
              ExpectSameBits(y, want.y, "y");
              ExpectSameBits(dx, want.dx, "dx");
              ExpectSameBits(conv.weight().grad, want.dw, "dW");
              if (bias) ExpectSameBits(conv.bias().grad, want.db, "db");
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 232);
}

INSTANTIATE_TEST_SUITE_P(Threads, ConvFoldingTest, ::testing::Values(1, 4));

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__OPTIMIZE__)
constexpr bool kTimedBuild = false;
#else
constexpr bool kTimedBuild = true;
#endif

// Seconds taken by `reps` calls of `fn`.
template <typename Fn>
double Seconds(Fn fn, int reps) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The conv speed floor. Conv2d forward+backward must run ResNet-20-w4's
// six 3x3 convs at batch 32 at least kFloor times as fast as ReferenceConv,
// the per-sample unfold-and-GEMM algorithm it is bitwise-equal to. Both run
// in this process, so the machine's speed cancels out of each ratio.
// Windows interleave the shapes and alternate which side runs first, and
// the median of the paired ratios ignores a busy moment. ASan, TSan and
// -O0 builds would time their instrumentation, so they skip, as does the
// scalar path (AUTOMC_SIMD=0 or no AVX2), whose floor is the reference's.
TEST(ConvSpeedTest, DirectConvIsAtLeast5xTheReference) {
  if (!kTimedBuild) GTEST_SKIP() << "instrumented or unoptimized build";
  if (tensor::simd::ActiveMode() != tensor::simd::SimdMode::kAvx2) {
    GTEST_SKIP() << "the AVX2 path is not active";
  }
  constexpr int kWindows = 15;  // per shape
  constexpr int kReps = 2;      // fwd+bwd passes per window side
  constexpr double kFloor = 5.0;
  struct Shape {
    int64_t in_c, out_c, size, stride;
  };
  const Shape kShapes[] = {{3, 4, 8, 1}, {4, 4, 8, 1},  {4, 8, 8, 2},
                           {8, 8, 4, 1}, {8, 16, 4, 2}, {16, 16, 2, 1}};
  Rng rng(47);
  std::vector<std::unique_ptr<Conv2d>> convs;
  std::vector<Tensor> xs, dys;
  for (const Shape& s : kShapes) {
    convs.push_back(
        std::make_unique<Conv2d>(s.in_c, s.out_c, 3, s.stride, 1, false, &rng));
    xs.push_back(Tensor::Randn({32, s.in_c, s.size, s.size}, &rng));
    const int64_t out = (s.size - 1) / s.stride + 1;
    dys.push_back(Tensor::Randn({32, s.out_c, out, out}, &rng));
  }
  std::vector<double> ratios;
  for (int w = -1; w < kWindows; ++w) {  // window -1 warms both paths up
    for (size_t i = 0; i < convs.size(); ++i) {
      Conv2d& conv = *convs[i];
      const auto reference = [&] { ReferenceConv(conv, xs[i], dys[i]); };
      const auto direct = [&] {
        conv.Forward(xs[i], true);
        conv.Backward(dys[i]);
      };
      double ref_s = 0.0, direct_s = 0.0;
      if (w % 2 == 0) {
        ref_s = Seconds(reference, kReps);
        direct_s = Seconds(direct, kReps);
      } else {
        direct_s = Seconds(direct, kReps);
        ref_s = Seconds(reference, kReps);
      }
      if (w >= 0) ratios.push_back(ref_s / direct_s);
    }
  }
  std::sort(ratios.begin(), ratios.end());
  const size_t mid = ratios.size() / 2;
  const double median = (ratios[mid - 1] + ratios[mid]) / 2;
  RecordProperty("conv_direct_over_reference", std::to_string(median));
  EXPECT_GE(median, kFloor) << "Conv2d ran only " << median
                            << "x the reference (paired ratios from "
                            << ratios.front() << "x to " << ratios.back()
                            << "x)";
}

// --------------------------------------------------------------------------
// Data module

TEST(DatasetTest, SyntheticShapes) {
  data::TaskData task = data::MakeCifar10Like(3);
  EXPECT_EQ(task.train.num_classes, 10);
  EXPECT_EQ(task.train.Size(), 640);
  EXPECT_EQ(task.test.Size(), 200);
  EXPECT_EQ(task.train.Channels(), 3);
  EXPECT_EQ(task.train.Height(), 8);
}

TEST(DatasetTest, SubsampleFraction) {
  data::TaskData task = data::MakeCifar10Like(3);
  Rng rng(1);
  data::Dataset sub = task.train.Subsample(0.1, &rng);
  EXPECT_EQ(sub.Size(), 64);
  EXPECT_EQ(sub.num_classes, 10);
}

TEST(DatasetTest, SplitPartitions) {
  data::TaskData task = data::MakeCifar10Like(3);
  Rng rng(1);
  auto [a, b] = task.train.Split(0.25, &rng);
  EXPECT_EQ(a.Size() + b.Size(), task.train.Size());
  EXPECT_EQ(a.Size(), 160);
}

TEST(DatasetTest, GatherRoundTrip) {
  data::TaskData task = data::MakeCifar10Like(3);
  std::vector<int64_t> idx = {5, 0, 10};
  Tensor imgs = task.train.GatherImages(idx);
  std::vector<int> labels = task.train.GatherLabels(idx);
  EXPECT_EQ(imgs.size(0), 3);
  EXPECT_EQ(labels.size(), 3u);
  // Row 1 of the gather equals source row 0.
  int64_t stride = task.train.Channels() * 64;
  for (int64_t i = 0; i < stride; ++i) {
    EXPECT_FLOAT_EQ(imgs[stride + i], task.train.images[i]);
  }
}

TEST(DatasetTest, DeterministicAcrossSeeds) {
  data::TaskData a = data::MakeCifar10Like(3);
  data::TaskData b = data::MakeCifar10Like(3);
  for (int64_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(a.train.images[i], b.train.images[i]);
  }
  EXPECT_EQ(a.train.labels, b.train.labels);
}

TEST(DatasetTest, TaskFeatureVectorShape) {
  data::TaskData task = data::MakeCifar10Like(3);
  auto f = data::TaskFeatureVector(task.train, 1000, 50000, 0.8);
  EXPECT_EQ(f.size(), static_cast<size_t>(data::kTaskFeatureDim));
  for (float v : f) EXPECT_TRUE(std::isfinite(v));
  EXPECT_FLOAT_EQ(f[6], 0.8f);
}

}  // namespace
}  // namespace nn
}  // namespace automc
