// Tests for the shared worker pool: coverage, determinism of the chunked
// reduction, nested-call safety, retraction of unclaimed helper copies, and
// the global-pool configuration hooks.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace qdb {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const uint64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(0, n, [&](uint64_t b, uint64_t e) {
    for (uint64_t i = b; i < e; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "element " << i;
  }
}

TEST(ThreadPoolTest, ParallelForEmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](uint64_t, uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A range below the minimum chunk width is one inline chunk.
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(0, 10, [&](uint64_t b, uint64_t e) {
    for (uint64_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPoolTest, ChunkBoundariesDependOnlyOnRange) {
  // The determinism contract: identical ranges produce identical chunk
  // layouts regardless of how many lanes the pool has.
  const uint64_t n = 1 << 18;
  auto layout = [n](int threads) {
    ThreadPool pool(threads);
    std::vector<std::pair<uint64_t, uint64_t>> chunks(
        (n + ThreadPool::ChunkSize(n) - 1) / ThreadPool::ChunkSize(n));
    pool.ParallelForChunks(0, n, [&](uint64_t ci, uint64_t b, uint64_t e) {
      chunks[ci] = {b, e};
    });
    return chunks;
  };
  EXPECT_EQ(layout(1), layout(4));
  EXPECT_EQ(layout(2), layout(7));
}

TEST(ThreadPoolTest, ChunkSizeProperties) {
  EXPECT_EQ(ThreadPool::ChunkSize(1), 2048u);      // Floor applies.
  EXPECT_EQ(ThreadPool::ChunkSize(2048), 2048u);
  const uint64_t big = uint64_t{1} << 24;
  const uint64_t chunk = ThreadPool::ChunkSize(big);
  EXPECT_GE(chunk, 2048u);
  EXPECT_LE((big + chunk - 1) / chunk, 64u);        // At most 64 chunks.
}

TEST(ThreadPoolTest, RunTasksRunsEachIndexOnce) {
  ThreadPool pool(4);
  const size_t n = 257;
  std::vector<std::atomic<int>> hits(n);
  pool.RunTasks(n, [&](size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
  pool.RunTasks(0, [&](size_t) { FAIL() << "no tasks expected"; });
}

TEST(ThreadPoolTest, ParallelSumBitIdenticalAcrossThreadCounts) {
  const uint64_t n = 1 << 17;
  auto run = [n](int threads) {
    ThreadPool pool(threads);
    return ParallelSum<double>(pool, 0, n, [](uint64_t b, uint64_t e) {
      double acc = 0.0;
      for (uint64_t i = b; i < e; ++i) acc += 1.0 / (1.0 + i);
      return acc;
    });
  };
  const double serial = run(1);
  // Bit-identical, not just approximately equal.
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(8));
}

TEST(ThreadPoolTest, NestedParallelCallsRunInlineWithoutDeadlock) {
  ThreadPool pool(4);
  const size_t outer = 8;
  const uint64_t inner = 50000;
  std::vector<uint64_t> sums(outer, 0);
  pool.RunTasks(outer, [&](size_t t) {
    // A nested call from a worker must not enqueue-and-wait (deadlock) —
    // it runs inline. From the caller lane it may still fan out; either
    // way the arithmetic below is per-task-local.
    std::atomic<uint64_t> local{0};
    pool.ParallelFor(0, inner, [&](uint64_t b, uint64_t e) {
      uint64_t part = 0;
      for (uint64_t i = b; i < e; ++i) part += i;
      local.fetch_add(part, std::memory_order_relaxed);
    });
    sums[t] = local.load();
  });
  const uint64_t expect = inner * (inner - 1) / 2;
  for (size_t t = 0; t < outer; ++t) EXPECT_EQ(sums[t], expect);
}

TEST(ThreadPoolTest, CallerReturnsWhileTheOnlyWorkerIsBusy) {
  // A two-lane pool whose one worker is stuck inside another thread's
  // RunTasks. A ParallelFor from this thread enqueues a helper copy that
  // worker cannot pick up; the caller drains every chunk itself and must
  // then take the copy back and return, not wait for the worker.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int entered = 0;
  bool release = false;
  std::thread blocker([&] {
    pool.RunTasks(2, [&](size_t) {
      std::unique_lock<std::mutex> lock(mu);
      ++entered;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
    });
  });
  {
    // Both lanes of the blocker's op — its caller and the worker — hold a
    // task, so the worker is busy until released.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered == 2; });
  }
  std::atomic<uint64_t> sum{0};
  std::future<void> done = std::async(std::launch::async, [&] {
    pool.ParallelFor(0, 1 << 16, [&](uint64_t b, uint64_t e) {
      uint64_t part = 0;
      for (uint64_t i = b; i < e; ++i) part += i;
      sum.fetch_add(part, std::memory_order_relaxed);
    });
  });
  const bool returned =
      done.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  blocker.join();
  done.wait();
  EXPECT_TRUE(returned) << "ParallelFor waited for the busy worker";
  EXPECT_EQ(sum.load(), (uint64_t{1} << 16) * ((uint64_t{1} << 16) - 1) / 2);
  EXPECT_EQ(pool.PendingOps(), 0u);
}

TEST(ThreadPoolTest, InWorkerFalseOnCallerThread) {
  EXPECT_FALSE(ThreadPool::InWorker());
}

TEST(ThreadPoolTest, SetGlobalThreadsResizesGlobalPool) {
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::Global().size(), 3);
  ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(ThreadPool::Global().size(), 1);
}

TEST(ThreadPoolTest, SingleLanePoolSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  bool saw_worker = false;
  pool.ParallelFor(0, 100000, [&](uint64_t, uint64_t) {
    saw_worker = saw_worker || ThreadPool::InWorker();
  });
  EXPECT_FALSE(saw_worker);  // Everything ran on the calling thread.
}

}  // namespace
}  // namespace qdb
