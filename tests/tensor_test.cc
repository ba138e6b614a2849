#include <algorithm>
#include <cmath>
#include <tuple>

#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace automc {
namespace tensor {
namespace {

TEST(TensorTest, ConstructionAndShape) {
  Tensor t({2, 3, 4, 5});
  EXPECT_EQ(t.dim(), 4);
  EXPECT_EQ(t.numel(), 120);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(3), 5);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, FillAndScale) {
  Tensor t({3, 3});
  t.Fill(2.0f);
  t.Scale(1.5f);
  for (int64_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(t[i], 3.0f);
  EXPECT_FLOAT_EQ(t.SumAll(), 27.0f);
  EXPECT_FLOAT_EQ(t.L2NormSquared(), 81.0f);
}

TEST(TensorTest, At4dRowMajorLayout) {
  Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 7.0f;
  EXPECT_FLOAT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 6});
  for (int64_t i = 0; i < 12; ++i) t[i] = static_cast<float>(i);
  Tensor r = t.Reshaped({3, 4});
  EXPECT_EQ(r.dim(), 2);
  EXPECT_EQ(r.size(0), 3);
  for (int64_t i = 0; i < 12; ++i) EXPECT_FLOAT_EQ(r[i], static_cast<float>(i));
}

TEST(TensorTest, AddAndAxpy) {
  Tensor a = Tensor::Full({4}, 1.0f);
  Tensor b = Tensor::Full({4}, 2.0f);
  a.AddInPlace(b);
  a.AxpyInPlace(0.5f, b);
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(a[i], 4.0f);
}

TEST(TensorTest, RandnIsSeedDeterministic) {
  Rng r1(5), r2(5);
  Tensor a = Tensor::Randn({10}, &r1);
  Tensor b = Tensor::Randn({10}, &r2);
  for (int64_t i = 0; i < 10; ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

TEST(TensorTest, KaimingNormalScale) {
  Rng rng(5);
  Tensor t = Tensor::KaimingNormal({2000}, 50, &rng);
  double var = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) var += static_cast<double>(t[i]) * t[i];
  var /= t.numel();
  EXPECT_NEAR(var, 2.0 / 50.0, 0.01);
}

// --------------------------------------------------------------------------
// MatMul family

TEST(MatMulTest, KnownProduct) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  for (int i = 0; i < 6; ++i) {
    a[i] = av[i];
    b[i] = bv[i];
  }
  Tensor c = MatMul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatMulTest, TransposeVariantsAgree) {
  Rng rng(1);
  Tensor a = Tensor::Randn({4, 6}, &rng);
  Tensor b = Tensor::Randn({6, 5}, &rng);
  Tensor c = MatMul(a, b);

  // MatMulTransposeA(a^T stored, b) should equal c.
  Tensor at({6, 4});
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 6; ++j) at.at(j, i) = a.at(i, j);
  }
  Tensor c2 = MatMulTransposeA(at, b);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], c2[i], 1e-4);

  // MatMulTransposeB(a, b^T stored) should equal c.
  Tensor bt({5, 6});
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 5; ++j) bt.at(j, i) = b.at(i, j);
  }
  Tensor c3 = MatMulTransposeB(a, bt);
  for (int64_t i = 0; i < c.numel(); ++i) EXPECT_NEAR(c[i], c3[i], 1e-4);
}

// --------------------------------------------------------------------------
// Conv2dForward / Conv2dBackward

double Dot(const Tensor& a, const Tensor& b) {
  double sum = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    sum += static_cast<double>(a[i]) * b[i];
  }
  return sum;
}

class ConvAdjointTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

// The backward pass is the forward pass's adjoint in x and in w: for random
// x, w and y, <conv(x, w), y> == <x, dx(y)> == <w, dw(y)>. A batch of 3
// leaves five lanes of the vector path empty.
TEST_P(ConvAdjointTest, AdjointIdentity) {
  auto [kernel, stride, pad] = GetParam();
  ConvGeometry g{3, 6, 6, kernel, stride, pad};
  if (g.OutH() <= 0 || g.OutW() <= 0) GTEST_SKIP();
  const int64_t n = 3, f = 5;
  Rng rng(2);
  Tensor x = Tensor::Randn({n, g.in_c, g.in_h, g.in_w}, &rng);
  Tensor w = Tensor::Randn({f, g.in_c, kernel, kernel}, &rng);
  Tensor y({n, f, g.OutH(), g.OutW()});
  Conv2dForward(x.data(), w.data(), nullptr, y.MutableData(), n, f, g);
  Tensor dy = Tensor::Randn(y.shape(), &rng);
  Tensor dx(x.shape());
  Tensor dw(w.shape());
  Conv2dBackward(x.data(), dy.data(), w.data(), dx.MutableData(),
                 dw.MutableData(), n, f, g);
  const double lhs = Dot(y, dy);
  EXPECT_NEAR(lhs, Dot(x, dx), 1e-3 * std::max(1.0, std::fabs(lhs)));
  EXPECT_NEAR(lhs, Dot(w, dw), 1e-3 * std::max(1.0, std::fabs(lhs)));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvAdjointTest,
    ::testing::Values(std::make_tuple(3, 1, 1), std::make_tuple(3, 2, 1),
                      std::make_tuple(1, 1, 0), std::make_tuple(1, 2, 0),
                      std::make_tuple(5, 1, 2), std::make_tuple(2, 2, 0)));

// --------------------------------------------------------------------------
// LogSoftmax

TEST(LogSoftmaxTest, RowsSumToOneInProbSpace) {
  Rng rng(3);
  Tensor logits = Tensor::Randn({4, 7}, &rng, 3.0f);
  Tensor lsm = LogSoftmax(logits);
  for (int64_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 7; ++j) s += std::exp(lsm.at(i, j));
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(LogSoftmaxTest, ShiftInvariant) {
  Tensor a({1, 3});
  a[0] = 1.0f;
  a[1] = 2.0f;
  a[2] = 3.0f;
  Tensor b({1, 3});
  for (int i = 0; i < 3; ++i) b[i] = a[i] + 100.0f;
  Tensor la = LogSoftmax(a), lb = LogSoftmax(b);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(la[i], lb[i], 1e-5);
}

TEST(LogSoftmaxTest, LargeLogitsStable) {
  Tensor a({1, 2});
  a[0] = 1000.0f;
  a[1] = -1000.0f;
  Tensor l = LogSoftmax(a);
  EXPECT_NEAR(l[0], 0.0f, 1e-5);
  EXPECT_TRUE(std::isfinite(l[1]));
}

}  // namespace
}  // namespace tensor
}  // namespace automc
