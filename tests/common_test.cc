#include <cmath>
#include <cstdint>

#include "common/bytes.h"
#include "common/matrix.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "gtest/gtest.h"

namespace automc {
namespace {

// --------------------------------------------------------------------------
// Status / Result

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad shape");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  AUTOMC_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  Result<int> ok = QuarterEven(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  Result<int> err = QuarterEven(6);  // 6/2 = 3 is odd
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Rng

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    int64_t v = rng.UniformInt(5);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 5);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(1);
  Rng child = a.Fork();
  // The fork should not replay the parent's stream.
  Rng b(1);
  b.Fork();
  EXPECT_NE(child.Uniform(), a.Uniform());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --------------------------------------------------------------------------
// Stats

TEST(StatsTest, MeanAndVariance) {
  float d[] = {1.0f, 2.0f, 3.0f, 4.0f};
  EXPECT_DOUBLE_EQ(Mean(d, 4), 2.5);
  EXPECT_DOUBLE_EQ(Variance(d, 4), 1.25);
  EXPECT_DOUBLE_EQ(StdDev(d, 4), std::sqrt(1.25));
}

TEST(StatsTest, SkewnessOfSymmetricDataIsZero) {
  float d[] = {-2.0f, -1.0f, 0.0f, 1.0f, 2.0f};
  EXPECT_NEAR(Skewness(d, 5), 0.0, 1e-9);
}

TEST(StatsTest, SkewnessSignMatchesTail) {
  float right[] = {0.0f, 0.0f, 0.0f, 0.0f, 10.0f};
  EXPECT_GT(Skewness(right, 5), 0.0);
  float left[] = {0.0f, 0.0f, 0.0f, 0.0f, -10.0f};
  EXPECT_LT(Skewness(left, 5), 0.0);
}

TEST(StatsTest, KurtosisOfUniformIsNegative) {
  // Uniform distributions are platykurtic (excess kurtosis < 0).
  std::vector<float> d;
  for (int i = 0; i < 100; ++i) d.push_back(static_cast<float>(i));
  EXPECT_LT(Kurtosis(d.data(), d.size()), 0.0);
}

TEST(StatsTest, DegenerateDataIsSafe) {
  float d[] = {3.0f, 3.0f, 3.0f};
  EXPECT_DOUBLE_EQ(Skewness(d, 3), 0.0);
  EXPECT_DOUBLE_EQ(Kurtosis(d, 3), -3.0);
  EXPECT_DOUBLE_EQ(Variance(d, 3), 0.0);
}

TEST(StatsTest, Norms) {
  float d[] = {3.0f, -4.0f};
  EXPECT_DOUBLE_EQ(L1Norm(d, 2), 7.0);
  EXPECT_DOUBLE_EQ(L2Norm(d, 2), 5.0);
}

// --------------------------------------------------------------------------
// Matrix / SVD

TEST(MatrixTest, MultiplyIdentity) {
  Matrix a(2, 3);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(0, 2) = 3;
  a.at(1, 0) = 4;
  a.at(1, 1) = 5;
  a.at(1, 2) = 6;
  Matrix eye(3, 3);
  for (int i = 0; i < 3; ++i) eye.at(i, i) = 1.0;
  Matrix p = a.Multiply(eye);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(p.at(i, j), a.at(i, j));
  }
}

TEST(MatrixTest, TransposeRoundTrip) {
  Rng rng(3);
  Matrix a(4, 7);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 7; ++j) a.at(i, j) = rng.Normal();
  }
  Matrix t = a.Transposed().Transposed();
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = 0; j < 7; ++j) EXPECT_DOUBLE_EQ(t.at(i, j), a.at(i, j));
  }
}

class SvdShapeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(SvdShapeTest, FullRankReconstructs) {
  auto [m, n] = GetParam();
  Rng rng(11);
  Matrix a(m, n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) a.at(i, j) = rng.Normal();
  }
  int64_t full = std::min(m, n);
  SvdResult svd = TruncatedSvd(a, full);
  // Reconstruct and compare.
  Matrix recon(m, n);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (int64_t k = 0; k < full; ++k) {
        s += svd.u.at(i, k) * svd.s[static_cast<size_t>(k)] * svd.v.at(j, k);
      }
      recon.at(i, j) = s;
    }
  }
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      EXPECT_NEAR(recon.at(i, j), a.at(i, j), 1e-6);
    }
  }
  // Singular values are sorted non-increasing and non-negative.
  for (size_t k = 0; k + 1 < svd.s.size(); ++k) {
    EXPECT_GE(svd.s[k], svd.s[k + 1]);
  }
  EXPECT_GE(svd.s.back(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, SvdShapeTest,
                         ::testing::Values(std::make_tuple(4, 4),
                                           std::make_tuple(6, 3),
                                           std::make_tuple(3, 6),
                                           std::make_tuple(10, 2),
                                           std::make_tuple(2, 10),
                                           std::make_tuple(1, 5),
                                           std::make_tuple(5, 1)));

TEST(SvdTest, RankOneMatrixRecovered) {
  // a = u v^T has exactly one nonzero singular value.
  Matrix a(3, 4);
  double u[] = {1.0, -2.0, 0.5};
  double v[] = {3.0, 0.0, -1.0, 2.0};
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 4; ++j) a.at(i, j) = u[i] * v[j];
  }
  SvdResult svd = TruncatedSvd(a, 3);
  EXPECT_GT(svd.s[0], 1.0);
  EXPECT_NEAR(svd.s[1], 0.0, 1e-8);
  EXPECT_NEAR(svd.s[2], 0.0, 1e-8);
}

TEST(SvdTest, TruncationMinimizesFrobeniusError) {
  // Truncated SVD of a known diagonal matrix keeps the largest values.
  Matrix a(4, 4);
  a.at(0, 0) = 5.0;
  a.at(1, 1) = 3.0;
  a.at(2, 2) = 1.0;
  a.at(3, 3) = 0.1;
  SvdResult svd = TruncatedSvd(a, 2);
  ASSERT_EQ(svd.s.size(), 2u);
  EXPECT_NEAR(svd.s[0], 5.0, 1e-9);
  EXPECT_NEAR(svd.s[1], 3.0, 1e-9);
}

// --------------------------------------------------------------------------
// ByteReader length checks

// A float count of 2^62 makes a naive `count * sizeof(float)` wrap to 0, so
// an 8-byte payload would pass the bounds check and the resize would throw.
TEST(ByteReaderTest, HostileCountsFailCleanly) {
  ByteWriter w;
  w.U64(uint64_t{1} << 62);
  ByteReader floats(w.str());
  std::vector<float> v;
  EXPECT_NO_THROW(EXPECT_FALSE(floats.Floats(&v)));
  EXPECT_TRUE(v.empty());

  ByteWriter ints_and_str;
  ints_and_str.U32(0xFFFFFFFFu);
  ByteReader ints(ints_and_str.str());
  std::vector<int> iv;
  EXPECT_FALSE(ints.Ints(&iv));
  ByteReader str(ints_and_str.str());
  std::string s;
  EXPECT_FALSE(str.Str(&s));
}

}  // namespace
}  // namespace automc
