// Numeric property tests: orthogonality/ordering invariants of the SVD,
// matrix algebra against naive references, and analytic loss properties.
#include <cmath>

#include "common/matrix.h"
#include "gtest/gtest.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace automc {
namespace {

using tensor::Tensor;

// --------------------------------------------------------------------------
// Matrix algebra vs naive reference

Matrix RandomMatrix(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (int64_t i = 0; i < r; ++i) {
    for (int64_t j = 0; j < c; ++j) m.at(i, j) = rng.Normal();
  }
  return m;
}

TEST(MatrixAlgebraTest, MultiplyMatchesNaive) {
  Matrix a = RandomMatrix(5, 7, 1);
  Matrix b = RandomMatrix(7, 4, 2);
  Matrix c = a.Multiply(b);
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      double s = 0.0;
      for (int64_t k = 0; k < 7; ++k) s += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), s, 1e-9);
    }
  }
}

TEST(MatrixAlgebraTest, MultiplyAssociativity) {
  Matrix a = RandomMatrix(3, 4, 3);
  Matrix b = RandomMatrix(4, 5, 4);
  Matrix c = RandomMatrix(5, 2, 5);
  Matrix left = a.Multiply(b).Multiply(c);
  Matrix right = a.Multiply(b.Multiply(c));
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(left.at(i, j), right.at(i, j), 1e-8);
    }
  }
}

TEST(MatrixAlgebraTest, FrobeniusNormMatchesDefinition) {
  Matrix a = RandomMatrix(4, 6, 7);
  double s = 0.0;
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 6; ++j) s += a.at(i, j) * a.at(i, j);
  }
  EXPECT_NEAR(a.FrobeniusNorm(), std::sqrt(s), 1e-9);
}

class SvdOrthogonalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SvdOrthogonalityTest, FactorsAreOrthonormal) {
  Matrix a = RandomMatrix(8, 6, GetParam());
  SvdResult svd = TruncatedSvd(a, 4);
  // U^T U = I and V^T V = I on the retained columns.
  for (int64_t p = 0; p < 4; ++p) {
    for (int64_t q = 0; q < 4; ++q) {
      double uu = 0.0, vv = 0.0;
      for (int64_t i = 0; i < 8; ++i) uu += svd.u.at(i, p) * svd.u.at(i, q);
      for (int64_t i = 0; i < 6; ++i) vv += svd.v.at(i, p) * svd.v.at(i, q);
      double expect = p == q ? 1.0 : 0.0;
      EXPECT_NEAR(uu, expect, 1e-6) << "U column pair " << p << "," << q;
      EXPECT_NEAR(vv, expect, 1e-6) << "V column pair " << p << "," << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SvdOrthogonalityTest,
                         ::testing::Values(11, 12, 13));

TEST(SvdPropertyTest, FrobeniusCapturedEnergyGrowsWithRank) {
  Matrix a = RandomMatrix(10, 10, 17);
  double total = a.FrobeniusNorm();
  double prev = 0.0;
  for (int64_t rank : {1, 3, 5, 10}) {
    SvdResult svd = TruncatedSvd(a, rank);
    double energy = 0.0;
    for (double s : svd.s) energy += s * s;
    energy = std::sqrt(energy);
    EXPECT_GE(energy + 1e-9, prev);
    EXPECT_LE(energy, total + 1e-6);
    prev = energy;
  }
  EXPECT_NEAR(prev, total, 1e-6);  // full rank captures everything
}

TEST(SvdPropertyTest, SingularValuesInvariantToTransposition) {
  Matrix a = RandomMatrix(7, 4, 19);
  SvdResult s1 = TruncatedSvd(a, 4);
  SvdResult s2 = TruncatedSvd(a.Transposed(), 4);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(s1.s[i], s2.s[i], 1e-8);
  }
}

// --------------------------------------------------------------------------
// Loss properties

TEST(LossPropertyTest, CrossEntropyNonNegative) {
  Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    Tensor logits = Tensor::Randn({3, 5}, &rng, 2.0f);
    std::vector<int> labels = {static_cast<int>(rng.UniformInt(5)),
                               static_cast<int>(rng.UniformInt(5)),
                               static_cast<int>(rng.UniformInt(5))};
    EXPECT_GE(nn::CrossEntropy(logits, labels).loss, 0.0f);
  }
}

TEST(LossPropertyTest, CrossEntropyDropsWhenLogitMovesTowardLabel) {
  Rng rng(29);
  Tensor logits = Tensor::Randn({1, 4}, &rng);
  std::vector<int> labels = {2};
  float before = nn::CrossEntropy(logits, labels).loss;
  logits.at(0, 2) += 1.0f;
  float after = nn::CrossEntropy(logits, labels).loss;
  EXPECT_LT(after, before);
}

TEST(LossPropertyTest, KdApproachesZeroAsTemperatureGrows) {
  // softmax(s/T) -> uniform for both distributions as T -> inf, so the
  // KL term vanishes; with the T^2 prefactor the loss tends to a finite
  // limit but the normalized KL shrinks. Check monotone decrease of
  // KL = loss / T^2.
  Rng rng(31);
  Tensor s = Tensor::Randn({2, 5}, &rng, 2.0f);
  Tensor t = Tensor::Randn({2, 5}, &rng, 2.0f);
  double prev = 1e30;
  for (float temp : {1.0f, 3.0f, 10.0f, 30.0f}) {
    double kl = nn::DistillationKl(s, t, temp).loss / (temp * temp);
    EXPECT_LT(kl, prev);
    prev = kl;
  }
}

TEST(LossPropertyTest, KdNonNegative) {
  Rng rng(37);
  for (int trial = 0; trial < 10; ++trial) {
    Tensor s = Tensor::Randn({2, 4}, &rng, 2.0f);
    Tensor t = Tensor::Randn({2, 4}, &rng, 2.0f);
    EXPECT_GE(nn::DistillationKl(s, t, 3.0f).loss, -1e-5f);
  }
}

TEST(LossPropertyTest, NegativeLikelihoodBounds) {
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    Tensor logits = Tensor::Randn({2, 6}, &rng, 3.0f);
    std::vector<int> labels = {static_cast<int>(rng.UniformInt(6)),
                               static_cast<int>(rng.UniformInt(6))};
    float loss = nn::NegativeLikelihood(logits, labels).loss;
    EXPECT_GE(loss, -1.0f - 1e-6f);
    EXPECT_LE(loss, 0.0f + 1e-6f);
  }
}

TEST(LossPropertyTest, AccuracyAndCrossEntropyAgreeOnConfidentModel) {
  // A model with very confident correct logits: accuracy 1, CE ~ 0.
  Tensor logits({3, 3});
  for (int i = 0; i < 3; ++i) logits.at(i, i) = 30.0f;
  std::vector<int> labels = {0, 1, 2};
  EXPECT_DOUBLE_EQ(nn::Accuracy(logits, labels), 1.0);
  EXPECT_NEAR(nn::CrossEntropy(logits, labels).loss, 0.0f, 1e-5);
}

// --------------------------------------------------------------------------
// LogSoftmax / softmax bridge

TEST(LogSoftmaxPropertyTest, MonotoneInLogits) {
  // Increasing one logit increases its own log-probability.
  Tensor a({1, 3});
  a[0] = 0.2f;
  a[1] = -1.0f;
  a[2] = 0.5f;
  Tensor l1 = tensor::LogSoftmax(a);
  a[1] += 2.0f;
  Tensor l2 = tensor::LogSoftmax(a);
  EXPECT_GT(l2[1], l1[1]);
  // And decreases everyone else's.
  EXPECT_LT(l2[0], l1[0]);
  EXPECT_LT(l2[2], l1[2]);
}

}  // namespace
}  // namespace automc
