// Unit tests for the shared execution backend (common/thread_pool.h):
// chunking arithmetic, edge cases, exception propagation, nesting, and the
// determinism contract (chunk boundaries independent of the thread count).
#include "common/thread_pool.h"

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/matrix.h"
#include "common/metrics.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "nn/layers.h"
#include "nn/model.h"
#include "nn/trainer.h"
#include "search/fmo.h"
#include "search/pareto.h"
#include "test_util.h"

namespace automc {
namespace {

// pool.tasks counts the chunks of every loop that fans out, while metrics
// are recorded.
bool PoolTasksRecorded() {
#ifdef AUTOMC_DISABLE_METRICS
  return false;
#else
  return metrics::Enabled();
#endif
}

int64_t PoolTasks() {
  return metrics::MetricsRegistry::Global().GetCounter("pool.tasks").value();
}

TEST(ThreadPoolTest, NumChunksMatchesCeilDiv) {
  EXPECT_EQ(ThreadPool::NumChunks(0, 4), 0);
  EXPECT_EQ(ThreadPool::NumChunks(1, 4), 1);
  EXPECT_EQ(ThreadPool::NumChunks(4, 4), 1);
  EXPECT_EQ(ThreadPool::NumChunks(5, 4), 2);
  EXPECT_EQ(ThreadPool::NumChunks(8, 4), 2);
  EXPECT_EQ(ThreadPool::NumChunks(9, 4), 3);
  // grain < 1 behaves as 1.
  EXPECT_EQ(ThreadPool::NumChunks(7, 0), 7);
  EXPECT_EQ(ThreadPool::NumChunks(7, -3), 7);
}

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 8, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  for (int64_t n : {1, 3, 17, 100, 1000}) {
    for (int64_t grain : {1, 2, 7, 64, 5000}) {
      std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
      pool.ParallelFor(n, grain, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
          hits[static_cast<size_t>(i)].fetch_add(1);
        }
      });
      for (int64_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
            << "n=" << n << " grain=" << grain << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, FewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkIndicesAreDeterministic) {
  // The (begin, end, chunk) triples must be a function of (n, grain) only.
  auto collect = [](ThreadPool& pool, int64_t n, int64_t grain) {
    std::vector<std::pair<int64_t, int64_t>> spans(
        static_cast<size_t>(ThreadPool::NumChunks(n, grain)));
    pool.ParallelFor(n, grain, [&](int64_t b, int64_t e, int64_t chunk) {
      spans[static_cast<size_t>(chunk)] = {b, e};
    });
    return spans;
  };
  ThreadPool serial(1);
  ThreadPool quad(4);
  for (int64_t n : {1, 13, 64, 257}) {
    for (int64_t grain : {1, 8, 100}) {
      EXPECT_EQ(collect(serial, n, grain), collect(quad, n, grain))
          << "n=" << n << " grain=" << grain;
    }
  }
}

TEST(ThreadPoolTest, ParallelSumMatchesSerial) {
  // Per-chunk partials combined in ascending chunk order: the canonical
  // deterministic-reduction pattern used by the gradient code.
  const int64_t n = 10000, grain = 64;
  std::vector<double> values(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    values[static_cast<size_t>(i)] = 1.0 / static_cast<double>(i + 1);
  }
  auto run = [&](ThreadPool& pool) {
    std::vector<double> partial(
        static_cast<size_t>(ThreadPool::NumChunks(n, grain)), 0.0);
    pool.ParallelFor(n, grain, [&](int64_t b, int64_t e, int64_t chunk) {
      double s = 0.0;
      for (int64_t i = b; i < e; ++i) s += values[static_cast<size_t>(i)];
      partial[static_cast<size_t>(chunk)] = s;
    });
    double total = 0.0;
    for (double p : partial) total += p;
    return total;
  };
  ThreadPool serial(1);
  ThreadPool quad(4);
  // Bitwise equality, not near-equality: same chunks, same order.
  EXPECT_EQ(run(serial), run(quad));
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100, 1,
                       [&](int64_t b, int64_t) {
                         if (b == 42) throw std::runtime_error("chunk failed");
                       }),
      std::runtime_error);
  // The pool must survive a failed loop and run subsequent work.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(10, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.ParallelFor(8, 1, [&](int64_t, int64_t) {
    std::thread::id outer = std::this_thread::get_id();
    // Nested loop must complete inline, on the outer chunk's thread,
    // without deadlock.
    pool.ParallelFor(4, 1,
                     [&](int64_t b, int64_t e) {
                       EXPECT_EQ(std::this_thread::get_id(), outer);
                       inner_total.fetch_add(static_cast<int>(e - b));
                     });
  });
  EXPECT_EQ(inner_total.load(), 32);
  // Back at top level, the caller fans a loop out again.
  if (PoolTasksRecorded()) {
    int64_t before = PoolTasks();
    pool.ParallelFor(2, 1, [](int64_t, int64_t) {});
    EXPECT_EQ(PoolTasks() - before, 2);
  }
}

TEST(ThreadPoolTest, SerialPoolRunsCallerInline) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(10, 1, [&](int64_t, int64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, ResetGlobalChangesThreadCount) {
  ThreadPool::ResetGlobal(3);
  EXPECT_EQ(ThreadPool::Global().threads(), 3);
  std::atomic<int64_t> sum{0};
  ParallelFor(100, 7, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 4950);
  ThreadPool::ResetGlobal(1);
  EXPECT_EQ(ThreadPool::Global().threads(), 1);
}

// Parallelism lives only in whole tasks: one training epoch through every
// layer kind, a Matrix product, a Pareto front and an F_mo step run on the
// caller and start no pool task, even with four lanes to fan out to.
TEST(ThreadPoolTest, KernelsNeverEnterThePool) {
  if (!PoolTasksRecorded()) GTEST_SKIP() << "pool.tasks is not recorded";
  testing::PoolGuard guard(4);
  int64_t before = PoolTasks();

  data::SyntheticTaskConfig cfg;
  cfg.num_classes = 3;
  cfg.train_per_class = 22;
  cfg.test_per_class = 2;
  data::TaskData task = data::MakeSyntheticTask(cfg);
  Rng rng(3);
  auto net = std::make_unique<nn::Sequential>();
  net->Add(std::make_unique<nn::Conv2d>(3, 8, 3, 1, 1, true, &rng));
  net->Add(std::make_unique<nn::BatchNorm2d>(8));
  net->Add(std::make_unique<nn::ReLU>());
  net->Add(std::make_unique<nn::Conv2d>(8, 8, 3, 1, 1, false, &rng));
  net->Add(std::make_unique<nn::LMAActivation>(3, 1.5f));
  net->Add(std::make_unique<nn::MaxPool2d>(2, 2));
  net->Add(std::make_unique<nn::GlobalAvgPool>());
  net->Add(std::make_unique<nn::Flatten>());
  net->Add(std::make_unique<nn::Linear>(8, 3, &rng));
  nn::ModelSpec spec;
  spec.family = "custom";
  spec.num_classes = 3;
  nn::Model model(spec, std::move(net));
  nn::TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 32;
  ASSERT_TRUE(nn::Trainer(tc).Fit(&model, task.train).ok());
  EXPECT_EQ(PoolTasks() - before, 0) << "a training epoch entered the pool";
  before = PoolTasks();

  Matrix a(64, 64);
  for (int64_t i = 0; i < 64; ++i) a.at(i, (i * 7) % 64) = 1.0 + i;
  EXPECT_EQ(a.Multiply(a).rows(), 64);
  EXPECT_EQ(PoolTasks() - before, 0) << "Matrix::Multiply entered the pool";
  before = PoolTasks();

  std::vector<std::pair<double, double>> points;
  for (int i = 0; i < 256; ++i) points.emplace_back(i % 17, -(i % 13));
  EXPECT_FALSE(search::ParetoFrontIndices(points).empty());
  EXPECT_EQ(PoolTasks() - before, 0) << "ParetoFrontIndices entered the pool";
  before = PoolTasks();

  search::Fmo fmo(16, 7, /*seed=*/5);
  search::FmoExample ex;
  ex.sequence = {tensor::Tensor::Randn({16}, &rng)};
  ex.candidate = tensor::Tensor::Randn({16}, &rng);
  ex.task = tensor::Tensor::Randn({7}, &rng);
  ex.ar_step = 0.1f;
  ex.pr_step = 0.2f;
  fmo.TrainBatch(std::vector<search::FmoExample>(8, ex));
  EXPECT_EQ(PoolTasks() - before, 0) << "Fmo::TrainBatch entered the pool";
}

}  // namespace
}  // namespace automc
