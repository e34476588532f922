/// \file thread_pool.h
/// \brief Fixed-size worker pool with deterministic range partitioning — the
/// shared parallel substrate of the simulator stack.
///
/// Design goals, in priority order:
///  1. **Determinism.** Chunk boundaries are a pure function of the range
///     size (never of the worker count or of scheduling), and reductions
///     combine per-chunk partials in chunk-index order. A computation run
///     with QDB_THREADS=1 and QDB_THREADS=16 therefore produces
///     bit-identical floating-point results.
///  2. **Nested safety.** A parallel call issued from inside a pool worker
///     (e.g. a gate kernel running under RunBatch) executes its chunks
///     inline on that worker in chunk order — same arithmetic, no deadlock,
///     no oversubscription.
///  3. **Zero cost when serial.** With one configured thread the pool spawns
///     no workers and every entry point degenerates to a plain loop.
///
/// The global pool is sized from the QDB_THREADS environment variable
/// (falling back to std::thread::hardware_concurrency) on first use.

#ifndef QDB_COMMON_THREAD_POOL_H_
#define QDB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qdb {

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers; the calling thread is the remaining
  /// lane. `num_threads` is clamped to [1, 256].
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, built on first use from QDB_THREADS (a positive
  /// integer) or, when unset, from the hardware concurrency.
  static ThreadPool& Global();

  /// Rebuilds the global pool with `num_threads` lanes. Test-only: callers
  /// must ensure no parallel work is in flight.
  static void SetGlobalThreads(int num_threads);

  /// Total parallel lanes (workers + the calling thread); >= 1.
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// True iff the current thread is one of this process's pool workers (any
  /// pool). Parallel entry points use this to fall back to inline execution.
  static bool InWorker();

  /// Deterministic chunk width for a range of `range` elements: ranges are
  /// cut into at most 64 chunks of at least 2048 elements. Exposed so
  /// reductions can size their partial buffers identically.
  static uint64_t ChunkSize(uint64_t range);

  /// Runs `body(chunk_index, chunk_begin, chunk_end)` over [begin, end)
  /// split into ChunkSize-wide chunks. Chunks are claimed dynamically by the
  /// caller and up to size()-1 workers; blocks until all chunks finished.
  /// Once the caller finds every chunk claimed it takes back the helper
  /// copies no worker has picked up, so it never waits on an idle or busy
  /// worker that holds no chunk.
  /// `body` must not throw, and distinct chunks must touch disjoint data
  /// (or only perform atomic updates).
  void ParallelForChunks(
      uint64_t begin, uint64_t end,
      const std::function<void(uint64_t, uint64_t, uint64_t)>& body);

  /// ParallelForChunks without the chunk index, for element-wise work.
  void ParallelFor(uint64_t begin, uint64_t end,
                   const std::function<void(uint64_t, uint64_t)>& body);

  /// Runs `task(i)` for each i in [0, count) with dynamic assignment across
  /// the caller and workers; blocks until all tasks finished (retracting
  /// unclaimed helper copies as ParallelForChunks does). Intended for coarse
  /// tasks (whole circuit executions, replay tiles), not per-element loops.
  void RunTasks(size_t count, const std::function<void(size_t)>& task);

  /// Fan-out ops currently queued and not yet claimed by a lane — a backlog
  /// indicator for callers that feed the pool from outside (e.g. the serving
  /// dispatchers), mirroring the pool.queue_depth gauge.
  size_t PendingOps() const;

 private:
  struct Op;  // Shared state of one ParallelForChunks / RunTasks call.

  void WorkerLoop();
  void Enqueue(int copies, const std::shared_ptr<Op>& op);
  /// Runs item(i) for i in [0, count) on the caller and up to count - 1
  /// helper copies, then retracts unclaimed copies and waits for the rest.
  void FanOut(size_t count, const std::function<void(size_t)>& item);

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Op>> queue_;
  bool stop_ = false;
};

/// Sums `fn(chunk_begin, chunk_end)` over [begin, end) with the pool's
/// deterministic chunking; partials are combined in chunk order, so the
/// result is bit-identical for any worker count. T must be value-initialized
/// to zero and support +=.
template <typename T, typename ChunkFn>
T ParallelSum(ThreadPool& pool, uint64_t begin, uint64_t end, ChunkFn&& fn) {
  const uint64_t range = end > begin ? end - begin : 0;
  if (range == 0) return T{};
  const uint64_t chunk = ThreadPool::ChunkSize(range);
  const uint64_t num_chunks = (range + chunk - 1) / chunk;
  std::vector<T> partials(num_chunks);
  pool.ParallelForChunks(begin, end,
                         [&](uint64_t ci, uint64_t b, uint64_t e) {
                           partials[ci] = fn(b, e);
                         });
  T total{};
  for (uint64_t ci = 0; ci < num_chunks; ++ci) total += partials[ci];
  return total;
}

}  // namespace qdb

#endif  // QDB_COMMON_THREAD_POOL_H_
