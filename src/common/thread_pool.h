#ifndef AUTOMC_COMMON_THREAD_POOL_H_
#define AUTOMC_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace automc {

// Fixed-size thread pool for the system's coarse, independent units of
// work: the speculation chains of SchemeEvaluator::EvaluateBatch, F_mo
// candidate scoring in the progressive searcher, and the two stages
// AutoMC::Run overlaps before its search. Kernels (GEMM, conv, BatchNorm,
// pooling, ...) never call it: each runs serially on the lane that runs
// its task.
//
// Determinism contract
// --------------------
// ParallelFor splits [0, n) into chunks whose boundaries depend only on
// (n, grain) — never on the thread count or on scheduling. Which thread
// executes a chunk is nondeterministic, so callers must either
//   * write to disjoint data per chunk, or
//   * reduce into per-chunk slots and combine them in ascending chunk
//     order after the loop.
// Under that discipline results are bit-identical for any AUTOMC_THREADS
// value, which is what the determinism test suite asserts.
//
// Sizing: the global pool reads AUTOMC_THREADS once (>=1; default:
// std::thread::hardware_concurrency). At size 1 every ParallelFor runs
// inline on the caller with zero synchronization. Nested ParallelFor calls
// issued from inside a chunk also run inline (serial), so a task may use
// code that loops in parallel at top level without deadlock.
class ThreadPool {
 public:
  // Creates a pool that executes work on `threads` lanes (the caller lane
  // plus threads-1 workers). threads < 1 is clamped to 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  // Chunk body: [begin, end) plus the deterministic chunk index.
  using ChunkFn = std::function<void(int64_t begin, int64_t end, int64_t chunk)>;
  using RangeFn = std::function<void(int64_t begin, int64_t end)>;

  // Runs `body` over [0, n) in chunks of at most `grain` elements
  // (grain < 1 is treated as 1). Blocks until every chunk finished; the
  // calling thread participates. The first exception thrown by any chunk
  // is rethrown here after all in-flight chunks drain.
  void ParallelFor(int64_t n, int64_t grain, const ChunkFn& body);
  void ParallelFor(int64_t n, int64_t grain, const RangeFn& body);

  // Number of chunks ParallelFor(n, grain, ...) will produce; use it to
  // size per-chunk reduction buffers.
  static int64_t NumChunks(int64_t n, int64_t grain);

  // Process-wide pool, sized from AUTOMC_THREADS on first use.
  static ThreadPool& Global();

  // Rebuilds the global pool with `threads` lanes. Test-only: callers must
  // guarantee no ParallelFor is in flight.
  static void ResetGlobal(int threads);

 private:
  struct Batch;   // one ParallelFor's shared state
  struct Shared;  // the ticket queue and its wakeup

  void WorkerLoop();
  void RunBatch(Batch* batch);

  int threads_;
  std::unique_ptr<Shared> shared_;
  std::vector<std::thread> workers_;
};

// Convenience wrappers over ThreadPool::Global().
void ParallelFor(int64_t n, int64_t grain, const ThreadPool::ChunkFn& body);
void ParallelFor(int64_t n, int64_t grain, const ThreadPool::RangeFn& body);

}  // namespace automc

#endif  // AUTOMC_COMMON_THREAD_POOL_H_
