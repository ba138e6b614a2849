#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <string>

#include "common/check.h"
#include "common/metrics.h"

namespace automc {

namespace {

thread_local bool tls_in_pool_task = false;

int DefaultThreads() {
  const char* env = std::getenv("AUTOMC_THREADS");
  if (env != nullptr && *env != '\0') {
    int v = std::atoi(env);
    if (v >= 1) return v > 256 ? 256 : v;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

// One ParallelFor invocation. Chunk indices are handed out by an atomic
// counter, so every chunk runs exactly once on whichever lane claims it.
struct ThreadPool::Batch {
  int64_t n = 0;
  int64_t grain = 1;
  int64_t chunks = 0;
  const ChunkFn* body = nullptr;

  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  std::atomic<bool> failed{false};

  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::exception_ptr error;
};

// Claim tickets in submission order: a worker that pops a ticket joins that
// batch's chunk loop. A ticket popped after its batch drained finds no
// chunk left and is dropped.
struct ThreadPool::Shared {
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::deque<std::shared_ptr<Batch>> tickets;
};

ThreadPool::ThreadPool(int threads)
    : threads_(threads < 1 ? 1 : threads), shared_(new Shared) {
  AUTOMC_METRIC_GAUGE("pool.threads", static_cast<double>(threads_));
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 1; i < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    shared_->stop = true;
  }
  shared_->cv.notify_all();
  for (std::thread& t : workers_) t.join();
}

int64_t ThreadPool::NumChunks(int64_t n, int64_t grain) {
  if (n <= 0) return 0;
  if (grain < 1) grain = 1;
  return (n + grain - 1) / grain;
}

void ThreadPool::RunBatch(Batch* batch) {
  bool prev = tls_in_pool_task;
  tls_in_pool_task = true;
  int64_t c;
  while ((c = batch->next.fetch_add(1, std::memory_order_relaxed)) <
         batch->chunks) {
    if (!batch->failed.load(std::memory_order_acquire)) {
      try {
        int64_t begin = c * batch->grain;
        int64_t end = begin + batch->grain;
        if (end > batch->n) end = batch->n;
        (*batch->body)(begin, end, c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(batch->mu);
        if (batch->error == nullptr) batch->error = std::current_exception();
        batch->failed.store(true, std::memory_order_release);
      }
    }
    if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        batch->chunks) {
      std::lock_guard<std::mutex> lock(batch->mu);
      batch->finished = true;
      batch->cv.notify_all();
    }
  }
  tls_in_pool_task = prev;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(shared_->mu);
      if (!shared_->stop && shared_->tickets.empty()) {
        auto idle_start = std::chrono::steady_clock::now();
        shared_->cv.wait(lock, [this] {
          return shared_->stop || !shared_->tickets.empty();
        });
        double idle_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - idle_start)
                .count();
        AUTOMC_METRIC_OBSERVE("pool.idle_ms", idle_ms);
      }
      if (shared_->tickets.empty()) return;  // stopping, nothing queued
      batch = std::move(shared_->tickets.front());
      shared_->tickets.pop_front();
    }
    RunBatch(batch.get());
  }
}

void ThreadPool::ParallelFor(int64_t n, int64_t grain, const ChunkFn& body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  int64_t chunks = NumChunks(n, grain);
  // Serial fallback: single-lane pool, a single chunk, or a nested call
  // from inside a pool task (nested loops serialize instead of deadlocking).
  if (threads_ == 1 || chunks == 1 || tls_in_pool_task) {
    for (int64_t c = 0; c < chunks; ++c) {
      int64_t begin = c * grain;
      int64_t end = begin + grain;
      if (end > n) end = n;
      body(begin, end, c);
    }
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->n = n;
  batch->grain = grain;
  batch->chunks = chunks;
  batch->body = &body;
  AUTOMC_METRIC_COUNT("pool.tasks", chunks);

  // One ticket per worker that can get a chunk: the caller takes one.
  int64_t tickets = std::min<int64_t>(static_cast<int64_t>(workers_.size()),
                                      chunks - 1);
  {
    std::lock_guard<std::mutex> lock(shared_->mu);
    for (int64_t i = 0; i < tickets; ++i) shared_->tickets.push_back(batch);
  }
  for (int64_t i = 0; i < tickets; ++i) shared_->cv.notify_one();

  // The caller participates, then waits for stragglers.
  RunBatch(batch.get());
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->cv.wait(lock, [&batch] { return batch->finished; });
  }
  if (batch->error != nullptr) std::rethrow_exception(batch->error);
}

void ThreadPool::ParallelFor(int64_t n, int64_t grain, const RangeFn& body) {
  ParallelFor(n, grain,
              [&body](int64_t begin, int64_t end, int64_t) { body(begin, end); });
}

namespace {
// Global pool storage. The pool itself is never destroyed at process exit
// (worker threads may outlive static destructors otherwise); ResetGlobal
// replaces it explicitly, joining the old workers first.
std::mutex g_pool_mu;
std::atomic<ThreadPool*> g_pool{nullptr};
}  // namespace

ThreadPool& ThreadPool::Global() {
  ThreadPool* p = g_pool.load(std::memory_order_acquire);
  if (p == nullptr) {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    p = g_pool.load(std::memory_order_relaxed);
    if (p == nullptr) {
      p = new ThreadPool(DefaultThreads());
      g_pool.store(p, std::memory_order_release);
    }
  }
  return *p;
}

void ThreadPool::ResetGlobal(int threads) {
  ThreadPool* next = new ThreadPool(threads);
  ThreadPool* old;
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    old = g_pool.exchange(next, std::memory_order_acq_rel);
  }
  delete old;  // joins the old workers; callers ensure no loop is in flight
}

void ParallelFor(int64_t n, int64_t grain, const ThreadPool::ChunkFn& body) {
  ThreadPool::Global().ParallelFor(n, grain, body);
}

void ParallelFor(int64_t n, int64_t grain, const ThreadPool::RangeFn& body) {
  ThreadPool::Global().ParallelFor(n, grain, body);
}

}  // namespace automc
