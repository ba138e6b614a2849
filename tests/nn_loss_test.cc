#include <cmath>

#include "gtest/gtest.h"
#include "nn/loss.h"
#include "test_util.h"

namespace automc {
namespace nn {
namespace {

using automc::testing::ExpectGradientsMatch;
using tensor::Tensor;

// Numeric gradient check for losses that map logits -> scalar.
template <typename LossCall>
void CheckLossGradient(LossCall call, Tensor logits) {
  LossResult res = call(logits);
  auto f = [&]() { return static_cast<double>(call(logits).loss); };
  ExpectGradientsMatch(&logits, f, res.grad, 1e-3, 3e-2);
}

TEST(CrossEntropyTest, PerfectPredictionLowLoss) {
  Tensor logits({2, 3});
  logits.at(0, 1) = 20.0f;
  logits.at(1, 2) = 20.0f;
  LossResult r = CrossEntropy(logits, {1, 2});
  EXPECT_LT(r.loss, 1e-3f);
}

TEST(CrossEntropyTest, UniformLogitsGiveLogC) {
  Tensor logits({1, 4});
  LossResult r = CrossEntropy(logits, {0});
  EXPECT_NEAR(r.loss, std::log(4.0f), 1e-5);
}

TEST(CrossEntropyTest, GradientSumsToZeroPerRow) {
  Rng rng(1);
  Tensor logits = Tensor::Randn({3, 5}, &rng);
  LossResult r = CrossEntropy(logits, {0, 2, 4});
  for (int64_t i = 0; i < 3; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 5; ++j) s += r.grad.at(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(CrossEntropyTest, FiniteDifference) {
  Rng rng(2);
  Tensor logits = Tensor::Randn({4, 3}, &rng);
  std::vector<int> labels = {0, 1, 2, 1};
  CheckLossGradient(
      [&](const Tensor& l) { return CrossEntropy(l, labels); }, logits);
}

TEST(NegativeLikelihoodTest, FiniteDifference) {
  Rng rng(3);
  Tensor logits = Tensor::Randn({3, 4}, &rng);
  std::vector<int> labels = {1, 0, 3};
  CheckLossGradient(
      [&](const Tensor& l) { return NegativeLikelihood(l, labels); }, logits);
}

TEST(NegativeLikelihoodTest, RangeIsMinusOneToZero) {
  Tensor good({1, 2});
  good.at(0, 0) = 30.0f;
  LossResult r = NegativeLikelihood(good, {0});
  EXPECT_NEAR(r.loss, -1.0f, 1e-4);
  Tensor bad({1, 2});
  bad.at(0, 1) = 30.0f;
  LossResult r2 = NegativeLikelihood(bad, {0});
  EXPECT_NEAR(r2.loss, 0.0f, 1e-4);
}

TEST(MseTest, KnownValue) {
  Tensor a({2}), b({2});
  a[0] = 1.0f;
  a[1] = 3.0f;
  b[0] = 0.0f;
  b[1] = 1.0f;
  LossResult r = Mse(a, b);
  EXPECT_FLOAT_EQ(r.loss, (1.0f + 4.0f) / 2.0f);
  EXPECT_FLOAT_EQ(r.grad[0], 1.0f);
  EXPECT_FLOAT_EQ(r.grad[1], 2.0f);
}

TEST(MseTest, FiniteDifference) {
  Rng rng(5);
  Tensor pred = Tensor::Randn({2, 3}, &rng);
  Tensor target = Tensor::Randn({2, 3}, &rng);
  LossResult res = Mse(pred, target);
  auto f = [&]() { return static_cast<double>(Mse(pred, target).loss); };
  ExpectGradientsMatch(&pred, f, res.grad, 1e-3, 3e-2);
}

class KdTemperatureTest : public ::testing::TestWithParam<float> {};

TEST_P(KdTemperatureTest, FiniteDifference) {
  float t = GetParam();
  Rng rng(6);
  Tensor student = Tensor::Randn({3, 4}, &rng);
  Tensor teacher = Tensor::Randn({3, 4}, &rng);
  LossResult res = DistillationKl(student, teacher, t);
  auto f = [&]() {
    return static_cast<double>(DistillationKl(student, teacher, t).loss);
  };
  ExpectGradientsMatch(&student, f, res.grad, 1e-3, 3e-2);
}

TEST_P(KdTemperatureTest, ZeroWhenDistributionsMatch) {
  float t = GetParam();
  Rng rng(7);
  Tensor logits = Tensor::Randn({2, 5}, &rng);
  LossResult r = DistillationKl(logits, logits, t);
  EXPECT_NEAR(r.loss, 0.0f, 1e-5);
  for (int64_t i = 0; i < r.grad.numel(); ++i) EXPECT_NEAR(r.grad[i], 0.0f, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Temperatures, KdTemperatureTest,
                         ::testing::Values(1.0f, 3.0f, 6.0f, 10.0f));

TEST(AccuracyTest, CountsArgmaxMatches) {
  Tensor logits({3, 2});
  logits.at(0, 0) = 1.0f;   // pred 0
  logits.at(1, 1) = 1.0f;   // pred 1
  logits.at(2, 0) = -1.0f;  // pred 1
  logits.at(2, 1) = 0.5f;
  EXPECT_DOUBLE_EQ(Accuracy(logits, {0, 1, 0}), 2.0 / 3.0);
}

}  // namespace
}  // namespace nn
}  // namespace automc
