#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>

#include "obs/obs.h"

namespace qdb {

namespace {

thread_local bool t_in_pool_worker = false;

/// Pool-wide metrics; looked up once, incremented from hot paths.
struct PoolCounters {
  obs::Counter* parallel_ops = obs::GetCounter("pool.parallel_ops");
  obs::Counter* tasks = obs::GetCounter("pool.tasks");
  obs::Gauge* queue_depth = obs::GetGauge("pool.queue_depth");
  obs::Gauge* workers = obs::GetGauge("pool.workers");
};

PoolCounters& Counters() {
  static PoolCounters counters;
  return counters;
}

int ThreadsFromEnv() {
  if (const char* env = std::getenv("QDB_THREADS"); env != nullptr && *env) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && v >= 1) {
      return static_cast<int>(std::min<long>(v, 256));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, 256));
}

std::unique_ptr<ThreadPool>& GlobalSlot() {
  static std::unique_ptr<ThreadPool> slot;
  return slot;
}

std::mutex& GlobalMu() {
  static std::mutex mu;
  return mu;
}

}  // namespace

/// Shared state of one blocking fan-out: every enqueued copy (and the
/// caller) runs `drain`, which claims work items off an atomic cursor until
/// none remain; the caller then retracts the copies no worker popped and
/// waits for the popped ones to retire.
struct ThreadPool::Op {
  std::function<void()> drain;
  /// The submitter's ambient trace context, re-installed in each worker so
  /// fanned-out chunks parent under the submitting request's span tree.
  obs::RequestContext context;
  std::mutex mu;
  std::condition_variable done_cv;
  int pending = 0;  ///< Queued or running copies (guarded by mu).
};

ThreadPool::ThreadPool(int num_threads) {
  const int lanes = std::clamp(num_threads, 1, 256);
  workers_.reserve(static_cast<size_t>(lanes - 1));
  for (int i = 0; i + 1 < lanes; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    std::shared_ptr<Op> op;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      op = std::move(queue_.front());
      queue_.pop_front();
      Counters().queue_depth->Set(static_cast<double>(queue_.size()));
    }
    {
      obs::ContextGuard context_guard(op->context);
      QDB_TRACE_SCOPE("ThreadPool::Task", "pool");
      op->drain();
      Counters().tasks->Increment();
    }
    {
      std::lock_guard<std::mutex> lock(op->mu);
      --op->pending;
    }
    op->done_cv.notify_all();
  }
}

void ThreadPool::Enqueue(int copies, const std::shared_ptr<Op>& op) {
  op->pending = copies;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int i = 0; i < copies; ++i) queue_.push_back(op);
    Counters().queue_depth->Set(static_cast<double>(queue_.size()));
  }
  if (copies == 1) {
    work_cv_.notify_one();
  } else {
    work_cv_.notify_all();
  }
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalMu());
  auto& slot = GlobalSlot();
  if (!slot) {
    slot = std::make_unique<ThreadPool>(ThreadsFromEnv());
    Counters().workers->Set(static_cast<double>(slot->size()));
  }
  return *slot;
}

void ThreadPool::SetGlobalThreads(int num_threads) {
  std::lock_guard<std::mutex> lock(GlobalMu());
  auto& slot = GlobalSlot();
  slot.reset();  // Join the old workers before spawning replacements.
  slot = std::make_unique<ThreadPool>(num_threads);
  Counters().workers->Set(static_cast<double>(slot->size()));
}

bool ThreadPool::InWorker() { return t_in_pool_worker; }

size_t ThreadPool::PendingOps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

uint64_t ThreadPool::ChunkSize(uint64_t range) {
  // At most 64 chunks, each at least 2048 elements: coarse enough that the
  // per-chunk dispatch cost vanishes against the kernel work, fine enough
  // to load-balance 64 lanes. Purely a function of `range` (determinism).
  return std::max<uint64_t>(2048, (range + 63) / 64);
}

void ThreadPool::ParallelForChunks(
    uint64_t begin, uint64_t end,
    const std::function<void(uint64_t, uint64_t, uint64_t)>& body) {
  if (end <= begin) return;
  const uint64_t range = end - begin;
  const uint64_t chunk = ChunkSize(range);
  const uint64_t num_chunks = (range + chunk - 1) / chunk;
  auto run_chunk = [&](uint64_t ci) {
    const uint64_t b = begin + ci * chunk;
    body(ci, b, std::min(end, b + chunk));
  };
  if (workers_.empty() || t_in_pool_worker || num_chunks == 1) {
    for (uint64_t ci = 0; ci < num_chunks; ++ci) run_chunk(ci);
    return;
  }
  QDB_TRACE_SCOPE("ThreadPool::ParallelFor", "pool");
  FanOut(static_cast<size_t>(num_chunks), run_chunk);
}

void ThreadPool::ParallelFor(
    uint64_t begin, uint64_t end,
    const std::function<void(uint64_t, uint64_t)>& body) {
  ParallelForChunks(begin, end,
                    [&body](uint64_t, uint64_t b, uint64_t e) { body(b, e); });
}

void ThreadPool::RunTasks(size_t count,
                          const std::function<void(size_t)>& task) {
  if (count == 0) return;
  if (workers_.empty() || t_in_pool_worker || count == 1) {
    for (size_t i = 0; i < count; ++i) task(i);
    return;
  }
  QDB_TRACE_SCOPE("ThreadPool::RunTasks", "pool");
  FanOut(count, task);
}

void ThreadPool::FanOut(size_t count, const std::function<void(size_t)>& item) {
  Counters().parallel_ops->Increment();
  auto next = std::make_shared<std::atomic<size_t>>(0);
  auto op = std::make_shared<Op>();
  op->context = obs::CurrentContext();  // Captured inside the caller's span.
  op->drain = [next, count, &item] {
    size_t i;
    while ((i = next->fetch_add(1, std::memory_order_relaxed)) < count) {
      item(i);
    }
  };
  const int helpers = static_cast<int>(std::min(workers_.size(), count - 1));
  Enqueue(helpers, op);
  op->drain();  // The caller is a full lane, not just a waiter.
  // Every item is claimed. Copies still queued can only find the cursor
  // spent, so take them back instead of waiting for a lane to wake for
  // them; wait only for copies a worker already popped (they may be running
  // an item).
  int retracted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (*it == op) {
        it = queue_.erase(it);
        ++retracted;
      } else {
        ++it;
      }
    }
    Counters().queue_depth->Set(static_cast<double>(queue_.size()));
  }
  std::unique_lock<std::mutex> lock(op->mu);
  op->pending -= retracted;
  op->done_cv.wait(lock, [&] { return op->pending == 0; });
}

}  // namespace qdb
