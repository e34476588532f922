/// \file inference_server.h
/// \brief The serving runtime: sharded bounded request queues, work-stealing
/// dispatcher threads that coalesce compatible requests into micro-batches,
/// per-tenant token-bucket quotas, admission control, per-request deadlines,
/// and a result cache.
///
/// Request lifecycle:
///
///   Submit ──▶ admission (tenant quota ──▶ resolve model, validate input,
///              cache lookup, breaker, shard-capacity check — overflow fails
///              fast with kUnavailable, quota exhaustion with
///              kResourceExhausted) ──▶ bounded shard queue (shard =
///              hash(model, version) % num_shards) ──▶ a dispatcher pops a
///              leader from its home shard — or steals a whole coalescible
///              batch from a backlogged shard when home is empty — and
///              coalesces every queued request for the same (model version,
///              request kind) for up to max_wait_us or max_batch_size ──▶
///              expired requests are cancelled with kDeadlineExceeded before
///              touching the simulator ──▶ one ServableModel::RunBatch
///              executes the whole micro-batch ──▶ promises resolve, results
///              enter the cache.
///
/// Sharding invariant: requests for one (model, version) always route to
/// one shard, so micro-batches still coalesce fully; independent models
/// land on independent mutexes, so Submit-side contention and dispatcher
/// queue scans split by num_shards instead of serializing on one lock.
///
/// Work-stealing invariant: a thief pops the victim's *front* leader and
/// drains compatible requests front-to-back exactly like the home
/// dispatcher would — a steal moves a whole coalescible batch and never
/// reorders requests within a (model, version, kind) stream. Stolen
/// batches close immediately (no coalescing window): a thief only exists
/// because some shard is backlogged while it is idle, so clearing work
/// beats waiting for stragglers. Per-stream dispatch order is audited at
/// batch-pop time; violations land in Stats::fifo_violations (always 0).
///
/// Batching invariant: a micro-batch only ever contains requests for one
/// servable (one model version) and one request kind, so the whole batch is
/// B parameter bindings of the same compiled circuit (or B points of one
/// CrossFromEncoded call). Dispatchers are dedicated threads — not pool
/// workers — so the batch execution itself still fans out across the shared
/// qdb::ThreadPool.
///
/// Multi-tenancy: InferenceRequest carries a `tenant` id; when
/// ServerOptions::enable_quotas is set, each tenant spends one token per
/// Submit from its token bucket (serve/tenant_quota.h) *before* any other
/// admission work. Quota rejections resolve with kResourceExhausted, land
/// in the dedicated Stats::quota_rejected terminal bucket, and never reach
/// the model registry, the circuit breakers, or a queue — an over-budget
/// tenant cannot poison breaker state or occupy shard capacity.
///
/// Shutdown is a graceful drain: admission stops (new Submits get
/// kUnavailable), dispatchers finish everything already queued across all
/// shards (work-stealing doubles as the drain path when dispatchers <
/// shards), then join.
///
/// Resilience: batch execution is retried under ServerOptions::retry for
/// transient (kUnavailable) failures, with deadline-aware backoff — a
/// request whose deadline cannot survive the next sleep resolves with
/// kDeadlineExceeded immediately. A per-servable circuit breaker
/// (fault/circuit_breaker.h) sheds load for a model whose batches keep
/// failing, and the degradation ladder kicks in under breaker-open or
/// queue pressure: bounded-staleness cache serving, shrunken coalescing
/// windows, and (inside ServableModel) compiled→streamed fallback.

#ifndef QDB_SERVE_INFERENCE_SERVER_H_
#define QDB_SERVE_INFERENCE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "fault/circuit_breaker.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/result_cache.h"
#include "serve/servable.h"
#include "serve/tenant_quota.h"

namespace qdb {
namespace store {
class AsyncModelLoader;  // store/async_loader.h
}  // namespace store
namespace serve {

/// \brief Serving-runtime knobs.
struct ServerOptions {
  /// Maximum queued (admitted, not yet executing) requests across all
  /// shards; each shard is bounded by ceil(queue_capacity / num_shards) and
  /// a Submit landing on a full shard fails with kUnavailable.
  size_t queue_capacity = 256;
  /// Largest micro-batch a dispatcher will coalesce.
  size_t max_batch_size = 16;
  /// How long a dispatcher holds an under-full batch open waiting for
  /// compatible requests, measured from when the leader was popped.
  /// Stolen batches skip the window entirely.
  long max_wait_us = 200;
  /// Dispatcher threads. Dispatcher i's home shard is i % num_shards; for
  /// latency-sensitive multi-shard deployments run at least one dispatcher
  /// per shard (a shard with no home dispatcher is served by steals, which
  /// poll every steal_poll_us).
  int num_dispatchers = 1;
  /// Independent request-queue shards, each with its own mutex, condition
  /// variable, and bounded sub-queue. Requests route deterministically by
  /// hash(model, version) % num_shards (see InferenceServer::ShardFor), so
  /// one model's stream stays coalescible on one shard while different
  /// models stop contending on a single lock. 1 = the pre-sharding
  /// single-queue server, bit-compatible with its behavior.
  int num_shards = 1;
  /// How long an idle dispatcher waits on its empty home shard before
  /// scanning the other shards for stealable work.
  long steal_poll_us = 200;
  /// Result-cache entries; 0 disables the cache.
  size_t result_cache_capacity = 1024;

  /// Batch-execution retry for transient failures (default: retry
  /// kUnavailable up to 4 attempts with jittered exponential backoff).
  RetryPolicy retry;
  /// Seed for the backoff-jitter streams (per-batch streams are derived
  /// from it, so retry schedules are deterministic for a fixed seed).
  uint64_t retry_jitter_seed = 0x7E575EEDull;

  /// Per-servable circuit breakers on the admission path.
  bool enable_breaker = true;
  fault::CircuitBreakerOptions breaker;

  /// Per-tenant token-bucket quotas, checked before any other admission
  /// work. Off by default: every request admits regardless of tenant.
  bool enable_quotas = false;
  TenantQuotaOptions quota;

  /// Fresh-path cache TTL: entries older than this are only eligible for
  /// degraded (stale) serving. 0 = cache entries never go stale, which
  /// also disables stale serving (the fresh path already returns them).
  long result_cache_ttl_us = 0;
  /// Staleness bound for degraded serving under breaker-open or queue
  /// pressure; 0 = any age is acceptable when degraded.
  long max_stale_age_us = 0;

  /// Shard-fill fraction above which dispatchers shrink the batch
  /// coalescing window to max_wait_us / 4 (throughput over batch quality
  /// under pressure). <= 0 disables the shrink.
  double pressure_watermark = 0.5;

  /// Per-model SLO tracking: every terminal resolution records into an
  /// obs::SloTracker and burn rates surface as slo.* gauges (after a
  /// Statusz or SloReport call) and in Statusz().
  bool enable_slo = true;
  /// Default objective for models without an explicit SetObjective.
  obs::SloObjective slo;
  /// Burn-rate look-back windows, seconds, strictly increasing.
  std::vector<long> slo_windows_s = {300, 3600};

  /// Warm-restart admission gate: after StartWarmup, Submit sheds with
  /// kUnavailable (and Healthz reports the distinct "warming" state) until
  /// this fraction of the registry's recovered warm set is resident again.
  /// Clamped to [0, 1]. Warmup *completion* always opens admission, even
  /// when some prefetches failed — a warm set that cannot fully load must
  /// degrade to cold starts, not a permanently closed door.
  double warm_ready_fraction = 1.0;
};

/// \brief One inference request. `version` < 0 serves the latest registered
/// version; `timeout_us` > 0 sets a deadline relative to Submit — a request
/// still queued past it is cancelled with kDeadlineExceeded and never
/// reaches the simulator. `tenant` names the token bucket charged when
/// quotas are enabled (the empty id is a tenant like any other).
struct InferenceRequest {
  std::string model;
  int version = -1;
  RequestKind kind = RequestKind::kPredict;
  DVector input;
  long timeout_us = 0;
  std::string tenant;
};

/// \brief Per-request timing breakdown returned with the response. All
/// timings are wall-clock microseconds; trace_id is 0 when tracing was
/// disabled at Submit time (the timings are still filled in).
struct TraceSummary {
  uint64_t trace_id = 0;       ///< Grep key into the Chrome-trace export.
  long queue_wait_us = 0;      ///< Admission → dispatch.
  long exec_us = 0;            ///< Sum of execution attempts.
  long retry_backoff_us = 0;   ///< Sum of backoff sleeps the request rode.
  int attempts = 0;            ///< Execution attempts (0 = never executed).
  long total_us = 0;           ///< Submit → resolution.
};

/// \brief A completed inference plus serving metadata.
struct InferenceResponse {
  InferenceValue result;
  int model_version = 0;
  bool from_cache = false;
  /// True when the response came from the degradation ladder (e.g. a
  /// stale cache entry served while the model's breaker was open).
  bool degraded = false;
  /// Execution attempts the batch took (0 for cache hits, >1 = retried).
  int attempts = 0;
  /// Micro-batch size this request executed in (0 for cache hits).
  size_t batch_size = 0;
  /// Time from admission to dispatch (0 for cache hits).
  long queue_wait_us = 0;
  /// Where the time went (and the trace id to find the span tree).
  TraceSummary trace;
};

/// \brief Dynamic micro-batching inference server over a ModelRegistry.
///
/// Thread-safe: any number of client threads may Submit concurrently.
/// Requests admitted before Start() queue up and execute once started.
class InferenceServer {
 public:
  /// `registry` must outlive the server.
  explicit InferenceServer(ModelRegistry& registry,
                           const ServerOptions& options = {});
  /// Drains and joins (see Shutdown).
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Spawns the dispatcher threads. Fails with kFailedPrecondition if
  /// already started or already shut down.
  Status Start();

  /// Graceful drain: stops admission (subsequent Submits fail with
  /// kUnavailable), lets dispatchers finish every queued request on every
  /// shard, joins them. Requests admitted but never started (Start was not
  /// called) fail with kUnavailable. Idempotent.
  void Shutdown();

  /// Admits a request and returns a future for its response. Admission
  /// failures (quota exhaustion, unknown model, bad input, full shard,
  /// shut down) and cache hits resolve the future immediately.
  std::future<Result<InferenceResponse>> Submit(InferenceRequest request);

  /// Deterministic shard routing: requests for (model, version) live on
  /// shard ShardFor(model, version, num_shards). Exposed so tests and
  /// benchmarks can construct model sets with known shard placement.
  static size_t ShardFor(const std::string& model, int version,
                         size_t num_shards);

  /// Requests currently queued (admitted, not yet dispatched), summed
  /// across shards.
  size_t queue_depth() const;
  /// The deepest single shard queue — the signal a full shard cannot hide
  /// behind a healthy-looking average (Healthz degrades on it).
  size_t max_shard_depth() const;
  /// Per-shard queue depths, indexed by shard.
  std::vector<size_t> shard_depths() const;

  /// Monotonic serving tallies (process-lifetime metrics live in qdb::obs;
  /// these are per-server and race-free to read in tests). Every submitted
  /// request lands in exactly one terminal bucket:
  ///   submitted == completed + cache_hits + degraded + rejected
  ///                + quota_rejected + expired + failed.
  struct Stats {
    long submitted = 0;       ///< Admission attempts.
    long completed = 0;       ///< Futures resolved with an executed result.
    long cache_hits = 0;      ///< Resolved fresh from the result cache.
    long degraded = 0;        ///< Resolved stale via the degradation ladder.
    long rejected = 0;        ///< Terminal at admission (invalid, overflow,
                              ///< breaker shed, shut down).
    long quota_rejected = 0;  ///< Shed by a tenant token bucket.
    long expired = 0;         ///< Cancelled with kDeadlineExceeded.
    long failed = 0;          ///< Execution failed after retries.
    long batches = 0;         ///< Micro-batches executed successfully.
    long steals = 0;          ///< Batches a dispatcher stole off-shard.
    long fifo_violations = 0; ///< Per-stream dispatch-order audit failures
                              ///< (an invariant: always 0).
  };
  Stats stats() const;

  const ResultCache& result_cache() const { return result_cache_; }

  /// The circuit breaker guarding (model, version), or null if that pair
  /// has not been submitted to yet (or breakers are disabled).
  const fault::CircuitBreaker* breaker(const std::string& model,
                                       int version) const;

  /// The quota manager (null when options.enable_quotas is false).
  const TenantQuotaManager* quotas() const { return quotas_.get(); }

  /// The SLO tracker (null when options.enable_slo is false).
  const obs::SloTracker* slo_tracker() const { return slo_.get(); }

  /// Begins the warm-restart prefetch: snapshots the registry's recovered
  /// warm set (pinned or previously-resident models) and drives `loader`
  /// to re-resident each one off the request path. Until
  /// ceil(warm_ready_fraction × warm set) models are resident, Submit
  /// sheds with kUnavailable and Healthz reports "warming". OK no-op when
  /// the warm set is empty. Requires a started server; `loader` must be
  /// started and outlive the warmup (Shutdown joins the warmup thread).
  Status StartWarmup(store::AsyncModelLoader& loader);

  /// Warm-restart progress, for Statusz and the crash harness.
  struct WarmupStatus {
    bool active = false;    ///< Warmup thread still prefetching.
    bool admitting = true;  ///< Readiness gate open (no warmup = open).
    size_t target = 0;      ///< Warm-set size StartWarmup snapshotted.
    size_t ready = 0;       ///< Prefetches that made a model resident.
    size_t failed = 0;      ///< Prefetches that failed (degrade to cold).
  };
  WarmupStatus warmup_status() const;

  /// Human-readable introspection page: per-shard queue depths, stats
  /// buckets, per-tenant token-bucket state, breaker states, degradation
  /// tallies, cache stats, warm-restart progress, armed fault points with
  /// per-point trigger counts, per-model SLO burn rates, and the slowest
  /// recent request traces.
  std::string Statusz() const;

  /// OK while the server can make progress: started, not shut down, past
  /// the warm-restart readiness gate, no shard at capacity (a single full
  /// shard degrades health even when the total backlog looks fine), and no
  /// model in SLO breach. Otherwise the status message names the first
  /// failing condition.
  Status Healthz() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// A queued request: resolved servable + promise + timing + trace.
  struct Pending {
    std::shared_ptr<const ServableModel> servable;
    RequestKind kind = RequestKind::kPredict;
    DVector input;
    std::string cache_key;  ///< Empty when the cache is disabled.
    Clock::time_point admitted;
    Clock::time_point deadline;  ///< Clock::time_point::max() = none.
    /// Shard-local admission sequence number, for the FIFO dispatch audit.
    uint64_t seq = 0;
    /// Root trace context minted at Submit (invalid if tracing was off).
    obs::RequestContext ctx;
    int64_t submit_trace_us = 0;  ///< Root-span start (trace clock).
    long retry_backoff_us = 0;    ///< Backoff sleeps ridden so far.
    std::promise<Result<InferenceResponse>> promise;
  };

  /// One independent queue shard. `depth` mirrors queue.size() for
  /// lock-free introspection (queue_depth / Healthz / gauges); the
  /// authoritative capacity check happens under `mu`.
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> queue;
    bool accepting = true;  ///< Cleared under `mu` by Shutdown.
    uint64_t enqueue_seq = 0;
    /// (servable, kind) → last dispatched seq, for the FIFO audit. Streams
    /// never migrate shards, so the map is consistent under `mu`.
    std::map<std::pair<const void*, int>, uint64_t> last_dispatched;
    /// Streams with an unclosed batch: a dispatcher coalescing inside its
    /// window releases `mu` to sleep, and a concurrent popper (home peer
    /// or thief) taking later same-stream arrivals would dispatch them
    /// out of order — so poppers skip open streams entirely.
    std::set<std::pair<const void*, int>> open_streams;
    std::atomic<size_t> depth{0};
  };

  void DispatcherLoop(size_t home_shard);
  /// Blocks until the home shard has work (then coalesces a batch with the
  /// usual window), a steal poll finds a backlogged victim shard (then
  /// returns the victim's front batch immediately), or the server is
  /// drained and stopping (then returns empty).
  std::vector<Pending> NextBatch(size_t home_shard);
  /// Pops the first leader whose stream is not already open plus every
  /// compatible queued request (same servable, same kind) from `shard`,
  /// whose lock is held via `lock`. `allow_window` keeps an under-full
  /// batch open up to max_wait_us (shrunk under shard pressure); stolen
  /// batches pass false. Returns empty when every queued request belongs
  /// to a stream another dispatcher is mid-window on.
  std::vector<Pending> PopBatchLocked(size_t shard_index,
                                      std::unique_lock<std::mutex>& lock,
                                      bool allow_window);
  /// Runs the batch with per-attempt fault injection, breaker outcome
  /// recording, and deadline-aware retry; resolves every promise.
  void ExecuteBatch(std::vector<Pending> batch);

  size_t per_shard_capacity() const {
    const size_t n = shards_.size();
    return (options_.queue_capacity + n - 1) / n;
  }
  /// Lazily creates the breaker for this servable's (name, version).
  fault::CircuitBreaker* BreakerFor(const ServableModel& servable);
  /// Resolves `pending` from a stale cache entry within max_stale_age_us,
  /// marking the response degraded. False when nothing stale is usable.
  bool TryServeStale(Pending& pending);
  /// Cancels every request in `live` whose deadline precedes `cutoff` with
  /// kDeadlineExceeded (`why` names the retry context for the message).
  void CancelExpired(std::vector<Pending>& live, Clock::time_point cutoff,
                     const char* why);

  /// Terminal accounting shared by every resolution path: labeled
  /// serve.requests / serve.latency_us children, SLO sample, and — when the
  /// request carries a trace — the outcome marker plus the root
  /// "serve.request" span. `outcome` must be a string literal.
  void RecordTerminal(const char* outcome, const std::string& model,
                      RequestKind kind, const obs::RequestContext& ctx,
                      int64_t submit_trace_us, long latency_us, bool ok);
  /// Publishes the aggregate and per-shard queue-depth gauges.
  void PublishDepth(size_t shard_index) const;

  ModelRegistry& registry_;
  const ServerOptions options_;
  ResultCache result_cache_;

  /// Shards are created once in the constructor and never resized, so the
  /// vector itself is safe to read without a lock.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Lifecycle state (started / stopping / shut down). Leaf lock; never
  /// held while taking a shard lock.
  mutable std::mutex state_mu_;
  bool started_ = false;
  bool shut_down_ = false;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> dispatchers_;
  /// Warm-restart state. The thread is guarded by state_mu_ (StartWarmup /
  /// Shutdown); the gate and tallies are atomics so Submit's check is one
  /// relaxed load when no warmup ran.
  std::thread warmup_thread_;
  std::atomic<bool> warming_{false};
  std::atomic<bool> warm_admitting_{true};
  std::atomic<size_t> warm_target_{0};
  std::atomic<size_t> warm_ready_{0};
  std::atomic<size_t> warm_failed_{0};
  /// Dedicated wakeup for backoff sleeps: Shutdown notifies it so retrying
  /// dispatchers cut their sleeps short, and retry waits never consume a
  /// shard-cv notify meant to hand work to an idle dispatcher.
  std::mutex backoff_mu_;
  std::condition_variable shutdown_cv_;

  /// name:version → breaker; breakers are created on first submit and live
  /// for the server lifetime (an evicted model's breaker is just idle).
  mutable std::mutex breakers_mu_;
  std::map<std::string, std::unique_ptr<fault::CircuitBreaker>> breakers_;

  /// Per-batch jitter-stream discriminator for retry backoff.
  std::atomic<uint64_t> batch_seq_{0};

  /// Per-tenant token buckets (null when disabled).
  std::unique_ptr<TenantQuotaManager> quotas_;

  /// Per-model SLO burn tracking (null when disabled).
  std::unique_ptr<obs::SloTracker> slo_;

  // Stats tallies (guarded by stats_mu_ so Stats reads are consistent).
  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace serve
}  // namespace qdb

#endif  // QDB_SERVE_INFERENCE_SERVER_H_
