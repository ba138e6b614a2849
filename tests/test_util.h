#ifndef AUTOMC_TESTS_TEST_UTIL_H_
#define AUTOMC_TESTS_TEST_UTIL_H_

#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <string>

#include "common/durable.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "tensor/tensor.h"

namespace automc {
namespace testing {

// RAII temp directory for store/checkpoint artifacts. Every instance gets a
// unique path (pid + per-process counter), so a test that aborted early in a
// previous run can never collide with — or leak state into — this one, and
// the destructor both removes the tree and *asserts* the removal, keeping
// stray store.bin/checkpoint.bin files out of /tmp and the build dir.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    namespace fs = std::filesystem;
    path_ = fs::temp_directory_path() /
            ("automc_test_" + tag + "_" +
             std::to_string(static_cast<long>(::getpid())) + "_" +
             std::to_string(counter.fetch_add(1)));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }

  ~ScopedTempDir() {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::remove_all(path_, ec);
    EXPECT_FALSE(ec) << "failed to clean " << path_ << ": " << ec.message();
    EXPECT_FALSE(fs::exists(path_)) << "stray test artifacts left at " << path_;
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

// Arms the durable layer's fault seam for the guard's lifetime: after
// `cut_after` durable operations on paths containing `match`, every later
// durable operation in the process fails as if the power had been cut.
// The destructor restores power.
class PowerCutAfter {
 public:
  PowerCutAfter(std::string match, int cut_after) {
    durable::fault::Arm(std::move(match), cut_after);
  }
  ~PowerCutAfter() { durable::fault::Disarm(); }
  PowerCutAfter(const PowerCutAfter&) = delete;
  PowerCutAfter& operator=(const PowerCutAfter&) = delete;
};

// With PowerCutAfter("checkpoint.bin", kCutInSecondCheckpoint) the first
// checkpoint lands and the power fails in the middle of writing the second
// one: every durable operation between the two (experience-store appends,
// job state files) is on disk, as when a process dies mid-checkpoint.
inline constexpr int kCutInSecondCheckpoint =
    durable::fault::kAtomicWriteOps + 1;

// Rebuilds the global thread pool for the guard's lifetime (and restores the
// serial pool afterwards). Tests use it to compare results across thread
// counts; callers must not have a ParallelFor in flight.
class PoolGuard {
 public:
  explicit PoolGuard(int threads) { ThreadPool::ResetGlobal(threads); }
  ~PoolGuard() { ThreadPool::ResetGlobal(1); }
};

// Central-difference numeric gradient of a scalar function with respect to
// the entries of `x`, compared elementwise against `analytic`.
// `f` must be a pure function of the current contents of *x.
inline void ExpectGradientsMatch(tensor::Tensor* x,
                                 const std::function<double()>& f,
                                 const tensor::Tensor& analytic,
                                 double eps = 1e-3, double tol = 2e-2) {
  ASSERT_EQ(x->numel(), analytic.numel());
  for (int64_t i = 0; i < x->numel(); ++i) {
    float orig = (*x)[i];
    (*x)[i] = orig + static_cast<float>(eps);
    double fp = f();
    (*x)[i] = orig - static_cast<float>(eps);
    double fm = f();
    (*x)[i] = orig;
    double numeric = (fp - fm) / (2.0 * eps);
    double a = analytic[i];
    double scale = std::max({1.0, std::fabs(numeric), std::fabs(a)});
    EXPECT_NEAR(numeric, a, tol * scale)
        << "gradient mismatch at flat index " << i;
  }
}

// Deterministic weights used to reduce a tensor to a scalar "loss" so both
// the analytic backward pass and the numeric differentiation see the same
// objective.
inline tensor::Tensor ScalarizeWeights(const std::vector<int64_t>& shape,
                                       uint64_t seed) {
  Rng rng(seed);
  return tensor::Tensor::Randn(shape, &rng, 1.0f);
}

inline double Scalarize(const tensor::Tensor& y, const tensor::Tensor& w) {
  double s = 0.0;
  for (int64_t i = 0; i < y.numel(); ++i) s += static_cast<double>(y[i]) * w[i];
  return s;
}

}  // namespace testing
}  // namespace automc

#endif  // AUTOMC_TESTS_TEST_UTIL_H_
