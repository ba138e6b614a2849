// Bitwise-identity coverage for the SIMD GEMM substrate (tensor/simd.h).
// The microkernel contract promises that the AVX2 path, the scalar
// fallback, every register-tile remainder, and every AUTOMC_SIMD setting
// produce bit-identical results — so every comparison here is EXPECT_EQ
// on float bits, never EXPECT_NEAR. The last case is the AVX2 path's speed
// floor, timed against the same scalar reference.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "nn/trainer.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace automc {
namespace tensor {
namespace {

using simd::GemmOp;

bool Avx2Available() {
  return simd::KernelsCompiled() && simd::HardwareOk();
}

std::vector<float> RandomVec(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

using GemmFn = void (*)(GemmOp, const float*, const float*, float*, int64_t,
                        int64_t, int64_t);

// C = noise + A'B' through one kernel.
std::vector<float> GemmResult(GemmFn gemm, GemmOp op,
                              const std::vector<float>& a,
                              const std::vector<float>& b, int64_t m,
                              int64_t k, int64_t n, uint64_t cseed) {
  std::vector<float> c = RandomVec(m * n, cseed);  // accumulate into noise
  gemm(op, a.data(), b.data(), c.data(), m, k, n);
  return c;
}

void ExpectBitwiseEqual(const std::vector<float>& x,
                        const std::vector<float>& y, const std::string& tag) {
  ASSERT_EQ(x.size(), y.size()) << tag;
  for (size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(x[i], y[i]) << tag << " element " << i;
    // NaN-safe bit check on top of value equality.
    uint32_t xb, yb;
    std::memcpy(&xb, &x[i], 4);
    std::memcpy(&yb, &y[i], 4);
    ASSERT_EQ(xb, yb) << tag << " bits at " << i;
  }
}

// Shapes — including n % 8 tails, k == 1, and single-panel widths — must
// be bitwise identical between the scalar chain and the packed AVX2 path
// for every op. The AVX2 register tile is 4 rows by 3 8-float vectors, so
// a shape runs the 4-row kernel when m >= 4 and the (m % 4)-row one for
// the last band, against 24-column groups and an 8- or 16-column remainder
// group; the shapes below reach all 12 row x vector kernels.
TEST(SimdKernelTest, Avx2MatchesScalarBitwiseAcrossShapes) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA at runtime";
  const struct {
    int64_t m, k, n;
  } kShapes[] = {{1, 1, 1},    {3, 5, 7},    {4, 27, 64},  {5, 9, 8},
                 {6, 16, 23},  {8, 72, 16},  {11, 13, 40}, {16, 144, 4},
                 {17, 31, 57}, {32, 288, 1}, {33, 29, 65}, {64, 64, 64},
                 {5, 1, 32},   {5, 7, 40},   {6, 12, 32},  {6, 3, 40},
                 {7, 20, 32},  {7, 9, 40},   {8, 5, 32},   {8, 33, 40}};
  bool ran[5][4] = {};  // [rows][vectors] of each kernel a shape runs
  for (const auto& s : kShapes) {
    const int64_t panels = s.n / 8;
    for (int64_t rows : {s.m >= 4 ? int64_t{4} : 0, s.m % 4}) {
      for (int64_t vecs : {panels >= 3 ? int64_t{3} : 0, panels % 3}) {
        ran[rows][vecs] = true;
      }
    }
  }
  for (int rows = 1; rows <= 4; ++rows) {
    for (int vecs = 1; vecs <= 3; ++vecs) {
      EXPECT_TRUE(ran[rows][vecs])
          << "no shape runs the " << rows << "x" << vecs << " kernel";
    }
  }
  uint64_t seed = 1;
  for (GemmOp op : {GemmOp::kNormal, GemmOp::kTransposeA, GemmOp::kTransposeB}) {
    for (const auto& s : kShapes) {
      std::vector<float> a =
          RandomVec(s.m * s.k, seed++);  // layout superset: k*m == m*k
      std::vector<float> b = RandomVec(s.k * s.n, seed++);
      ExpectBitwiseEqual(
          GemmResult(simd::GemmScalar, op, a, b, s.m, s.k, s.n, /*cseed=*/99),
          GemmResult(simd::GemmAvx2, op, a, b, s.m, s.k, s.n, /*cseed=*/99),
          "op=" + std::to_string(static_cast<int>(op)) +
              " m=" + std::to_string(s.m) + " k=" + std::to_string(s.k) +
              " n=" + std::to_string(s.n));
    }
  }
}

// The direct convolution's AVX2 path against its scalar twin, bit for bit:
// y, dx and dw (accumulated into noise). The shapes reach every forward and
// dX tile (1-4 filters or channels by 1-3 columns), every dW tile width
// (C*k*k % 8 from 0 to 7), batches that leave 7 down to 0 lanes of the last
// vector empty, non-square images, strides up to 3, and windows that
// overhang the padded image.
TEST(SimdKernelTest, Avx2ConvMatchesScalarBitwiseAcrossShapes) {
  if (!Avx2Available()) GTEST_SKIP() << "no AVX2+FMA at runtime";
  const struct {
    int64_t n, c, h, w, f, kernel, stride, pad;
    bool bias;
  } kShapes[] = {
      {1, 1, 1, 1, 1, 1, 1, 0, false},  {3, 3, 8, 8, 6, 3, 1, 1, true},
      {7, 2, 5, 7, 5, 3, 2, 1, false},  {8, 4, 8, 8, 4, 3, 1, 1, false},
      {9, 5, 4, 6, 7, 2, 2, 0, true},   {12, 8, 4, 4, 16, 1, 2, 0, false},
      {16, 6, 3, 3, 3, 5, 1, 2, true},  {17, 7, 6, 5, 2, 1, 1, 0, false},
      {32, 16, 2, 2, 16, 3, 1, 1, false}, {33, 3, 2, 2, 9, 3, 2, 0, true},
      {5, 1, 9, 4, 8, 3, 3, 1, false},  {4, 12, 4, 4, 8, 1, 1, 0, false},
      {2, 2, 3, 3, 4, 3, 1, 0, true},   {11, 1, 7, 7, 3, 3, 2, 1, false},
      {6, 3, 1, 3, 2, 1, 2, 0, false},  {10, 2, 5, 5, 1, 5, 1, 2, false},
      {1, 5, 1, 1, 3, 1, 1, 0, true},
  };
  bool fwd_ran[5][4] = {}, dx_ran[5][4] = {}, dw_ran[9] = {};
  uint64_t seed = 700;
  for (const auto& s : kShapes) {
    const ConvGeometry g{s.c, s.h, s.w, s.kernel, s.stride, s.pad};
    const int64_t q = g.OutH() * g.OutW(), cols = q * ((s.n + 7) / 8);
    for (int64_t cn : {cols >= 3 ? int64_t{3} : 0, cols % 3}) {
      for (int64_t fr : {s.f >= 4 ? int64_t{4} : 0, s.f % 4}) {
        fwd_ran[fr][cn] = true;
      }
      for (int64_t cr : {s.c >= 4 ? int64_t{4} : 0, s.c % 4}) {
        dx_ran[cr][cn] = true;
      }
    }
    const int64_t ckk = s.c * s.kernel * s.kernel;
    dw_ran[ckk >= 8 ? 8 : 0] = true;
    dw_ran[ckk % 8] = true;

    const std::string tag =
        "n=" + std::to_string(s.n) + " c=" + std::to_string(s.c) +
        " h=" + std::to_string(s.h) + " w=" + std::to_string(s.w) +
        " f=" + std::to_string(s.f) + " k=" + std::to_string(s.kernel) +
        " s=" + std::to_string(s.stride) + " p=" + std::to_string(s.pad);
    const std::vector<float> x = RandomVec(s.n * s.c * s.h * s.w, seed++);
    const std::vector<float> w = RandomVec(s.f * ckk, seed++);
    const std::vector<float> bias = RandomVec(s.f, seed++);
    const std::vector<float> dy = RandomVec(s.n * s.f * q, seed++);
    const std::vector<float> dw0 = RandomVec(s.f * ckk, seed++);
    const float* b = s.bias ? bias.data() : nullptr;
    std::vector<float> y_s(static_cast<size_t>(s.n * s.f * q)), y_v = y_s;
    simd::ConvForwardScalar(x.data(), w.data(), b, y_s.data(), s.n, s.f, g);
    simd::ConvForwardAvx2(x.data(), w.data(), b, y_v.data(), s.n, s.f, g);
    ExpectBitwiseEqual(y_s, y_v, "y " + tag);
    std::vector<float> dx_s(x.size()), dx_v(x.size());
    std::vector<float> dw_s = dw0, dw_v = dw0;
    simd::ConvBackwardScalar(x.data(), dy.data(), w.data(), dx_s.data(),
                             dw_s.data(), s.n, s.f, g);
    simd::ConvBackwardAvx2(x.data(), dy.data(), w.data(), dx_v.data(),
                           dw_v.data(), s.n, s.f, g);
    ExpectBitwiseEqual(dx_s, dx_v, "dx " + tag);
    ExpectBitwiseEqual(dw_s, dw_v, "dw " + tag);
  }
  for (int rows = 1; rows <= 4; ++rows) {
    for (int cols = 1; cols <= 3; ++cols) {
      EXPECT_TRUE(fwd_ran[rows][cols])
          << "no shape runs the " << rows << "x" << cols << " forward tile";
      EXPECT_TRUE(dx_ran[rows][cols])
          << "no shape runs the " << rows << "x" << cols << " dX tile";
    }
  }
  for (int v = 1; v <= 8; ++v) {
    EXPECT_TRUE(dw_ran[v]) << "no shape runs the " << v << "-kk dW tile";
  }
}

// COW buffers (and therefore every tensor's data()) must start on a cache
// line so the packed kernels' aligned loads are safe against buffer starts.
TEST(SimdKernelTest, TensorBuffersAre64ByteAligned) {
  for (int64_t n : {1, 7, 64, 1000}) {
    Tensor t({n});
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) % 64, 0u) << n;
  }
}

// Full training run (conv + linear forward/backward, every GEMM op) under
// AUTOMC_SIMD=0 vs =1: final loss, test accuracy, and every trained
// parameter must be bit-identical.
struct TrainResult {
  float loss = 0.0f;
  double acc = 0.0;
  std::vector<std::vector<float>> params;
};

TrainResult TrainSmallModel() {
  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 3;
  cfg.train_per_class = 10;
  cfg.test_per_class = 4;
  cfg.seed = 91;
  data::TaskData task = data::MakeSyntheticTask(cfg);

  nn::ModelSpec spec;
  spec.family = "vgg";
  spec.depth = 13;
  spec.num_classes = 3;
  spec.base_width = 4;
  Rng rng(3);
  auto model = std::move(nn::BuildModel(spec, &rng)).value();

  nn::TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 10;
  nn::Trainer trainer(tc);
  TrainResult r;
  AUTOMC_CHECK(
      trainer.Fit(model.get(), task.train, nullptr, nullptr, &r.loss).ok());
  r.acc = nn::Trainer::Evaluate(model.get(), task.test);
  for (nn::Param* p : model->Params()) {
    r.params.emplace_back(p->value.data(),
                          p->value.data() + p->value.numel());
  }
  return r;
}

// Puts back the caller's AUTOMC_SIMD, and the dispatch it selects, when a
// test that flips it ends, so later cases run in the mode ctest chose.
class ScopedSimdEnv {
 public:
  ScopedSimdEnv() {
    if (const char* v = std::getenv("AUTOMC_SIMD")) saved_ = v;
  }
  ~ScopedSimdEnv() {
    if (saved_) {
      ::setenv("AUTOMC_SIMD", saved_->c_str(), 1);
    } else {
      ::unsetenv("AUTOMC_SIMD");
    }
    simd::RefreshDispatch();
  }

 private:
  std::optional<std::string> saved_;
};

TEST(SimdKernelTest, SimdEnvToggleIsBitwiseInvariantThroughTraining) {
  if (!Avx2Available()) {
    GTEST_SKIP() << "only one mode reachable at runtime";
  }
  ScopedSimdEnv restore;
  ::setenv("AUTOMC_SIMD", "1", 1);
  simd::RefreshDispatch();
  ASSERT_EQ(simd::ActiveMode(), simd::SimdMode::kAvx2);
  TrainResult vec = TrainSmallModel();

  ::setenv("AUTOMC_SIMD", "0", 1);
  simd::RefreshDispatch();
  ASSERT_EQ(simd::ActiveMode(), simd::SimdMode::kScalarHwFma);
  TrainResult scal = TrainSmallModel();

  EXPECT_EQ(vec.loss, scal.loss);
  EXPECT_EQ(vec.acc, scal.acc);
  ASSERT_EQ(vec.params.size(), scal.params.size());
  for (size_t i = 0; i < vec.params.size(); ++i) {
    ExpectBitwiseEqual(vec.params[i], scal.params[i],
                       "param " + std::to_string(i));
  }
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__OPTIMIZE__)
constexpr bool kTimedBuild = false;
#else
constexpr bool kTimedBuild = true;
#endif

// Seconds taken by `reps` calls of `gemm`.
template <typename Fn>
double GemmSeconds(Fn gemm, int reps) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) gemm();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// The GEMM speed floor. The production entry point, GemmAccumRaw (what
// MatMul and every conv reach), must run 128^3 and 256^3 at least 12x as
// fast as the scalar reference it is bitwise-equal to. Both kernels run in
// this process, so the machine's speed cancels out of each ratio. Windows
// interleave the two shapes and alternate which kernel runs first, and the
// median of the paired ratios ignores a busy moment. On a 4-vCPU VM a
// healthy kernel measures 16-20x, also under a full ctest -j4, and the
// microkernel without its unroll pragmas (the tile spilled to the stack)
// 7-9x. ASan, TSan and -O0 builds would time their instrumentation or
// unoptimized intrinsics (ASan+UBSan measures ~4x, -O0 ~5x), so they skip.
TEST(SimdKernelTest, Avx2GemmIsAtLeast12xTheScalarReference) {
  if (!kTimedBuild) GTEST_SKIP() << "instrumented or unoptimized build";
  if (simd::ActiveMode() != simd::SimdMode::kAvx2) {
    GTEST_SKIP() << "the AVX2 path is not active";
  }
  constexpr int kWindows = 15;  // per shape
  constexpr double kFloor = 12.0;
  struct Shape {
    int64_t n;
    int reps;  // calls per window side: 8 x 128^3 = 1 x 256^3 multiply-adds
    std::vector<float> a, b, c_scalar, c_avx2;
  };
  Shape shapes[] = {{128, 8, {}, {}, {}, {}}, {256, 1, {}, {}, {}, {}}};
  uint64_t seed = 500;
  for (Shape& s : shapes) {
    s.a = RandomVec(s.n * s.n, seed++);
    s.b = RandomVec(s.n * s.n, seed++);
    s.c_scalar = RandomVec(s.n * s.n, seed++);
    s.c_avx2 = s.c_scalar;
  }
  std::vector<double> ratios;
  for (int w = -1; w < kWindows; ++w) {  // window -1 warms both paths up
    for (Shape& s : shapes) {
      const auto scalar = [&s] {
        simd::GemmScalar(GemmOp::kNormal, s.a.data(), s.b.data(),
                         s.c_scalar.data(), s.n, s.n, s.n);
      };
      const auto avx2 = [&s] {
        GemmAccumRaw(s.a.data(), s.b.data(), s.c_avx2.data(), s.n, s.n, s.n);
      };
      double scalar_s = 0.0, avx2_s = 0.0;
      if (w % 2 == 0) {
        scalar_s = GemmSeconds(scalar, s.reps);
        avx2_s = GemmSeconds(avx2, s.reps);
      } else {
        avx2_s = GemmSeconds(avx2, s.reps);
        scalar_s = GemmSeconds(scalar, s.reps);
      }
      if (w >= 0) ratios.push_back(scalar_s / avx2_s);
    }
  }
  // Both sides made the same calls, so the timed work was the same.
  for (const Shape& s : shapes) {
    ExpectBitwiseEqual(s.c_scalar, s.c_avx2, "n=" + std::to_string(s.n));
  }
  std::sort(ratios.begin(), ratios.end());
  const size_t mid = ratios.size() / 2;
  const double median = (ratios[mid - 1] + ratios[mid]) / 2;
  RecordProperty("gemm_avx2_over_scalar", std::to_string(median));
  EXPECT_GE(median, kFloor) << "AVX2 GEMM ran only " << median
                            << "x the scalar reference (paired ratios from "
                            << ratios.front() << "x to " << ratios.back()
                            << "x)";
}

}  // namespace
}  // namespace tensor
}  // namespace automc
