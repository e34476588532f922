#include "serve/inference_server.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "common/hash.h"
#include "common/strings.h"
#include "fault/fault_injector.h"
#include "obs/labels.h"
#include "obs/obs.h"
#include "serve/model_artifact.h"
#include "store/async_loader.h"

namespace qdb {
namespace serve {

namespace {

/// serve.* metric handles, resolved once. The labeled families sit beside
/// the unlabeled aggregates: aggregates stay cheap and name-stable for
/// existing dashboards, families carry the per-model / per-shard /
/// per-tenant / per-outcome cut.
struct ServeMetrics {
  obs::Gauge* queue_depth = obs::GetGauge("serve.queue_depth");
  obs::Counter* requests = obs::GetCounter("serve.requests");
  obs::Counter* rejected = obs::GetCounter("serve.rejected");
  obs::Counter* quota_rejected = obs::GetCounter("serve.quota_rejected");
  obs::Counter* expired = obs::GetCounter("serve.deadline_expired");
  obs::Counter* failed = obs::GetCounter("serve.failed");
  obs::Counter* retries = obs::GetCounter("serve.retries");
  obs::Counter* cache_hits = obs::GetCounter("serve.cache_hits");
  obs::Counter* cache_misses = obs::GetCounter("serve.cache_misses");
  obs::Counter* stale_hits = obs::GetCounter("serve.degraded.stale_hits");
  obs::Counter* window_shrinks =
      obs::GetCounter("serve.degraded.batch_window_shrinks");
  obs::Counter* batches = obs::GetCounter("serve.batches");
  obs::Counter* steals = obs::GetCounter("serve.batch_steals");
  obs::Counter* fifo_violations = obs::GetCounter("serve.fifo_violations");
  obs::Histogram* batch_size = obs::GetHistogram(
      "serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128});
  obs::Histogram* queue_wait_us = obs::GetHistogram("serve.queue_wait_us");
  obs::Histogram* dispatch_attempts = obs::GetHistogram(
      "serve.dispatch.attempts", {1, 2, 3, 4, 6, 8, 12, 16});
  obs::CounterFamily* requests_by =
      obs::MetricsRegistry::Global().GetCounterFamily(
          "serve.requests", {"model", "kind", "outcome"});
  obs::HistogramFamily* latency_by =
      obs::MetricsRegistry::Global().GetHistogramFamily(
          "serve.latency_us", {"model", "outcome"});
  obs::GaugeFamily* shard_depth_by =
      obs::MetricsRegistry::Global().GetGaugeFamily("serve.shard.depth",
                                                    {"shard"});
  obs::CounterFamily* quota_rejected_by =
      obs::MetricsRegistry::Global().GetCounterFamily("serve.quota.rejected",
                                                      {"tenant"});
  obs::GaugeFamily* quota_tokens_by =
      obs::MetricsRegistry::Global().GetGaugeFamily("serve.quota.tokens",
                                                    {"tenant"});
};

ServeMetrics& Metrics() {
  static ServeMetrics metrics;
  return metrics;
}

/// Trace-event name for a terminal outcome — events store string-literal
/// pointers, so the label is mapped back to a literal here.
const char* OutcomeEventName(const char* outcome) {
  if (std::strcmp(outcome, "ok") == 0) return "serve.outcome.ok";
  if (std::strcmp(outcome, "cache_hit") == 0) return "serve.outcome.cache_hit";
  if (std::strcmp(outcome, "degraded") == 0) return "serve.outcome.degraded";
  if (std::strcmp(outcome, "rejected") == 0) return "serve.outcome.rejected";
  if (std::strcmp(outcome, "quota_rejected") == 0) {
    return "serve.outcome.quota_rejected";
  }
  if (std::strcmp(outcome, "expired") == 0) return "serve.outcome.expired";
  if (std::strcmp(outcome, "failed") == 0) return "serve.outcome.failed";
  return "serve.outcome.other";
}

std::future<Result<InferenceResponse>> ImmediateResult(
    Result<InferenceResponse> result) {
  std::promise<Result<InferenceResponse>> promise;
  promise.set_value(std::move(result));
  return promise.get_future();
}

long MicrosBetween(std::chrono::steady_clock::time_point from,
                   std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

InferenceServer::InferenceServer(ModelRegistry& registry,
                                 const ServerOptions& options)
    : registry_(registry),
      options_(options),
      result_cache_(options.result_cache_capacity) {
  const int num_shards = std::max(options_.num_shards, 1);
  shards_.reserve(num_shards);
  for (int i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (options_.enable_quotas) {
    quotas_ = std::make_unique<TenantQuotaManager>(options_.quota);
  }
  if (options_.enable_slo) {
    slo_ = std::make_unique<obs::SloTracker>(options_.slo,
                                             options_.slo_windows_s);
  }
}

size_t InferenceServer::ShardFor(const std::string& model, int version,
                                 size_t num_shards) {
  if (num_shards <= 1) return 0;
  // Same key construction as the breaker map and the result cache: one
  // (model, version) stream hashes to one shard, so its requests always
  // share a queue and stay coalescible.
  return static_cast<size_t>(Fnv1a64(StrCat(model, ":", version))) %
         num_shards;
}

void InferenceServer::PublishDepth(size_t shard_index) const {
  const Shard& shard = *shards_[shard_index];
  Metrics()
      .shard_depth_by->With(StrCat(shard_index))
      ->Set(static_cast<double>(shard.depth.load(std::memory_order_relaxed)));
  size_t total = 0;
  for (const auto& s : shards_) {
    total += s->depth.load(std::memory_order_relaxed);
  }
  Metrics().queue_depth->Set(static_cast<double>(total));
}

void InferenceServer::RecordTerminal(const char* outcome,
                                     const std::string& model,
                                     RequestKind kind,
                                     const obs::RequestContext& ctx,
                                     int64_t submit_trace_us, long latency_us,
                                     bool ok) {
  ServeMetrics& metrics = Metrics();
  metrics.requests_by->With(model, RequestKindName(kind), outcome)
      ->Increment();
  metrics.latency_by->With(model, outcome)
      ->Observe(static_cast<double>(latency_us));
  if (slo_ != nullptr) {
    slo_->Record(model, latency_us, ok, obs::TraceNowMicros());
  }
  if (ctx.valid()) {
    const int64_t now_us = obs::TraceNowMicros();
    // Instant outcome marker under the root, then the root span itself —
    // closed here because resolution, not Submit's return, ends a request.
    obs::RecordSpan(OutcomeEventName(outcome), "serve", now_us, 0,
                    ctx.trace_id, obs::NewSpanId(), ctx.span_id);
    obs::RecordSpan("serve.request", "serve", submit_trace_us,
                    now_us - submit_trace_us, ctx.trace_id, ctx.span_id, 0);
  }
}

InferenceServer::~InferenceServer() { Shutdown(); }

Status InferenceServer::Start() {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (shut_down_ || stopping_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("server has been shut down");
  }
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  started_ = true;
  const int n = options_.num_dispatchers > 0 ? options_.num_dispatchers : 1;
  const size_t num_shards = shards_.size();
  dispatchers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Dispatcher i camps on shard i % num_shards; shards beyond the
    // dispatcher count are served by work-stealing.
    dispatchers_.emplace_back(
        [this, home = static_cast<size_t>(i) % num_shards] {
          DispatcherLoop(home);
        });
  }
  return Status::OK();
}

void InferenceServer::Shutdown() {
  std::vector<std::thread> dispatchers;
  std::thread warmup;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (shut_down_) return;
    stopping_.store(true, std::memory_order_relaxed);
    dispatchers.swap(dispatchers_);
    warmup.swap(warmup_thread_);
  }
  // The warmup loop checks stopping_ between prefetches and every accepted
  // loader job settles its future, so this join is bounded by one job.
  if (warmup.joinable()) warmup.join();
  // Close admission shard by shard. Writing `accepting` under each shard's
  // lock keeps Submit's check-and-push atomic against the flag flip, and
  // notifying under the lock guarantees no dispatcher blocks on a cv wait
  // it entered just before stopping_ was visible.
  for (size_t i = 0; i < shards_.size(); ++i) {
    {
      std::lock_guard<std::mutex> lock(shards_[i]->mu);
      shards_[i]->accepting = false;
    }
    shards_[i]->cv.notify_all();
  }
  shutdown_cv_.notify_all();  // Cut retry backoff sleeps short.
  for (auto& t : dispatchers) t.join();
  // Anything still queued was admitted but never started (or a dispatcher
  // never existed): fail it rather than leaving futures hanging.
  std::deque<Pending> orphans;
  for (size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    while (!shards_[i]->queue.empty()) {
      orphans.push_back(std::move(shards_[i]->queue.front()));
      shards_[i]->queue.pop_front();
    }
    shards_[i]->depth.store(0, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    shut_down_ = true;
  }
  if (!orphans.empty()) {
    Metrics().rejected->Increment(static_cast<long>(orphans.size()));
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.rejected += static_cast<long>(orphans.size());
  }
  for (auto& pending : orphans) {
    RecordTerminal("rejected", pending.servable->name(), pending.kind,
                   pending.ctx, pending.submit_trace_us,
                   MicrosBetween(pending.admitted, Clock::now()), false);
    pending.promise.set_value(
        Status::Unavailable("server shut down before the request executed"));
  }
  for (size_t i = 0; i < shards_.size(); ++i) PublishDepth(i);
}

Status InferenceServer::StartWarmup(store::AsyncModelLoader& loader) {
  std::lock_guard<std::mutex> lock(state_mu_);
  if (shut_down_ || stopping_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("server has been shut down");
  }
  if (!started_) {
    return Status::FailedPrecondition("start the server before warming up");
  }
  if (warmup_thread_.joinable()) {
    return Status::FailedPrecondition("warmup is already running");
  }
  const std::vector<std::pair<std::string, int>> warm =
      registry_.RecoveredWarmSet();
  if (warm.empty()) return Status::OK();
  const double fraction =
      std::min(1.0, std::max(0.0, options_.warm_ready_fraction));
  const size_t needed = static_cast<size_t>(
      std::ceil(fraction * static_cast<double>(warm.size())));
  warm_target_.store(warm.size(), std::memory_order_relaxed);
  warm_ready_.store(0, std::memory_order_relaxed);
  warm_failed_.store(0, std::memory_order_relaxed);
  warming_.store(true, std::memory_order_relaxed);
  warm_admitting_.store(needed == 0, std::memory_order_relaxed);
  warmup_thread_ = std::thread([this, &loader, warm, needed] {
    for (const auto& [name, version] : warm) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      // Warm() absorbs the cold-start reload on the loader's worker; the
      // .get() here only paces the warmup loop, it blocks no request.
      Result<store::AsyncModelLoader::Servable> resident =
          loader.Warm(name, version).get();
      if (resident.ok()) {
        warm_ready_.fetch_add(1, std::memory_order_relaxed);
      } else {
        warm_failed_.fetch_add(1, std::memory_order_relaxed);
      }
      if (warm_ready_.load(std::memory_order_relaxed) >= needed) {
        warm_admitting_.store(true, std::memory_order_relaxed);
      }
    }
    // Done (or aborted by shutdown): open admission unconditionally.
    // Models that failed to warm will cold-start on their first request.
    warm_admitting_.store(true, std::memory_order_relaxed);
    warming_.store(false, std::memory_order_relaxed);
  });
  return Status::OK();
}

InferenceServer::WarmupStatus InferenceServer::warmup_status() const {
  WarmupStatus status;
  status.active = warming_.load(std::memory_order_relaxed);
  status.admitting = warm_admitting_.load(std::memory_order_relaxed);
  status.target = warm_target_.load(std::memory_order_relaxed);
  status.ready = warm_ready_.load(std::memory_order_relaxed);
  status.failed = warm_failed_.load(std::memory_order_relaxed);
  return status;
}

std::future<Result<InferenceResponse>> InferenceServer::Submit(
    InferenceRequest request) {
  // Mint the request's trace identity before any span opens, and install it
  // as this thread's ambient context: every span below — admission, cache,
  // breaker, and (via the queue) batch execution — joins this trace.
  obs::RequestContext ctx;
  int64_t submit_trace_us = 0;
  if (obs::TracingEnabled()) {
    ctx = obs::RequestContext::NewRoot();
    submit_trace_us = obs::TraceNowMicros();
  }
  obs::ContextGuard context_guard(ctx);
  QDB_TRACE_SCOPE("InferenceServer::Submit", "serve");
  const Clock::time_point submit_time = Clock::now();
  Metrics().requests->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.submitted;
  }
  const auto elapsed_us = [submit_time] {
    return MicrosBetween(submit_time, Clock::now());
  };

  // Warm-restart gate: while the warm set is still below the readiness
  // fraction, every request sheds — serving a half-warmed registry would
  // cold-start the hottest models on the request path, exactly what the
  // warmup exists to prevent. Checked before quotas so a warming server
  // does not burn tenants' tokens on requests it cannot serve.
  if (warming_.load(std::memory_order_relaxed) &&
      !warm_admitting_.load(std::memory_order_relaxed)) {
    Metrics().rejected->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected;
    }
    RecordTerminal("rejected", request.model, request.kind, ctx,
                   submit_trace_us, elapsed_us(), false);
    return ImmediateResult(Status::Unavailable(
        StrCat("server is warming up: ",
               warm_ready_.load(std::memory_order_relaxed), " of ",
               warm_target_.load(std::memory_order_relaxed),
               " warm-set models resident; retry shortly")));
  }

  // Tenant quota is the first admission rung — before the registry, the
  // cache, and the breakers. An over-budget tenant therefore cannot trip a
  // model's breaker, consume a half-open probe slot, or occupy shard
  // capacity; it is shed at the door with a retryable-after-refill code.
  // The token is spent even if a later rung rejects the request: quotas
  // meter admission attempts, not successes.
  if (quotas_ != nullptr && !quotas_->TryAcquire(request.tenant)) {
    Metrics().quota_rejected->Increment();
    Metrics().quota_rejected_by->With(request.tenant)->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.quota_rejected;
    }
    RecordTerminal("quota_rejected", request.model, request.kind, ctx,
                   submit_trace_us, elapsed_us(), false);
    return ImmediateResult(Status::ResourceExhausted(
        StrCat("tenant '", request.tenant,
               "' is out of quota tokens; retry after refill")));
  }

  // Resolve the model next: unknown names and malformed inputs should
  // fail loudly, not occupy queue space.
  Result<std::shared_ptr<const ServableModel>> servable =
      registry_.Lookup(request.model, request.version);
  if (!servable.ok()) {
    Metrics().rejected->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected;
    }
    RecordTerminal("rejected", request.model, request.kind, ctx,
                   submit_trace_us, elapsed_us(), false);
    return ImmediateResult(servable.status());
  }
  if (Status valid = servable.value()->ValidateInput(request.kind,
                                                     request.input);
      !valid.ok()) {
    Metrics().rejected->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected;
    }
    RecordTerminal("rejected", request.model, request.kind, ctx,
                   submit_trace_us, elapsed_us(), false);
    return ImmediateResult(std::move(valid));
  }

  // Fresh cache hits resolve before the breaker sees the request: a cached
  // answer needs no execution, so it must neither consume a half-open
  // probe slot nor be shed while the model is open.
  std::string cache_key;
  if (options_.result_cache_capacity > 0) {
    cache_key = ResultCache::MakeKey(servable.value()->name(),
                                     servable.value()->version(),
                                     request.kind, request.input);
    if (std::optional<InferenceValue> hit =
            result_cache_.Lookup(cache_key, options_.result_cache_ttl_us)) {
      Metrics().cache_hits->Increment();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.cache_hits;
      }
      InferenceResponse response;
      response.result = std::move(*hit);
      response.model_version = servable.value()->version();
      response.from_cache = true;
      response.trace.trace_id = ctx.trace_id;
      response.trace.total_us = elapsed_us();
      RecordTerminal("cache_hit", request.model, request.kind, ctx,
                     submit_trace_us, response.trace.total_us, true);
      return ImmediateResult(std::move(response));
    }
    Metrics().cache_misses->Increment();
  }

  Pending pending;
  pending.servable = std::move(servable).value();
  pending.kind = request.kind;
  pending.input = std::move(request.input);
  pending.cache_key = std::move(cache_key);
  pending.admitted = submit_time;
  pending.deadline =
      request.timeout_us > 0
          ? pending.admitted + std::chrono::microseconds(request.timeout_us)
          : Clock::time_point::max();
  pending.ctx = ctx;
  pending.submit_trace_us = submit_trace_us;
  std::future<Result<InferenceResponse>> future =
      pending.promise.get_future();

  // Breaker-open load shedding, with the first rung of the degradation
  // ladder: a slightly stale cached answer beats an error while the model
  // recovers.
  if (options_.enable_breaker &&
      !BreakerFor(*pending.servable)->Allow()) {
    if (TryServeStale(pending)) return future;
    Metrics().rejected->Increment();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.rejected;
    }
    RecordTerminal("rejected", pending.servable->name(), pending.kind, ctx,
                   submit_trace_us, elapsed_us(), false);
    pending.promise.set_value(Status::Unavailable(
        StrCat("circuit breaker open for model '", pending.servable->name(),
               "' v", pending.servable->version(),
               "; shedding load while it recovers")));
    return future;
  }

  // Route to the (model, version) home shard. The resolved version is used
  // (not the request's, which may be -1 = latest) so aliases of the same
  // servable coalesce on the same queue.
  const size_t shard_index =
      ShardFor(pending.servable->name(), pending.servable->version(),
               shards_.size());
  Shard& shard = *shards_[shard_index];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.accepting) {
      Metrics().rejected->Increment();
      {
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.rejected;
      }
      RecordTerminal("rejected", pending.servable->name(), pending.kind, ctx,
                     submit_trace_us, elapsed_us(), false);
      pending.promise.set_value(
          Status::Unavailable("server is shutting down"));
      return future;
    }
    if (shard.queue.size() >= per_shard_capacity()) {
      // Queue-pressure degradation: prefer a stale cached answer to a
      // hard rejection when this shard's backlog is already saturated.
      if (TryServeStale(pending)) return future;
      Metrics().rejected->Increment();
      {
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.rejected;
      }
      RecordTerminal("rejected", pending.servable->name(), pending.kind, ctx,
                     submit_trace_us, elapsed_us(), false);
      pending.promise.set_value(Status::Unavailable(
          StrCat("request queue shard ", shard_index, " is full (",
                 per_shard_capacity(), " pending); retry with backoff")));
      return future;
    }
    pending.seq = ++shard.enqueue_seq;
    shard.queue.push_back(std::move(pending));
    shard.depth.store(shard.queue.size(), std::memory_order_relaxed);
  }
  PublishDepth(shard_index);
  shard.cv.notify_one();
  return future;
}

size_t InferenceServer::queue_depth() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->depth.load(std::memory_order_relaxed);
  }
  return total;
}

size_t InferenceServer::max_shard_depth() const {
  size_t deepest = 0;
  for (const auto& shard : shards_) {
    deepest =
        std::max(deepest, shard->depth.load(std::memory_order_relaxed));
  }
  return deepest;
}

std::vector<size_t> InferenceServer::shard_depths() const {
  std::vector<size_t> depths;
  depths.reserve(shards_.size());
  for (const auto& shard : shards_) {
    depths.push_back(shard->depth.load(std::memory_order_relaxed));
  }
  return depths;
}

InferenceServer::Stats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

const fault::CircuitBreaker* InferenceServer::breaker(
    const std::string& model, int version) const {
  std::lock_guard<std::mutex> lock(breakers_mu_);
  auto it = breakers_.find(StrCat(model, ":", version));
  return it == breakers_.end() ? nullptr : it->second.get();
}

std::string InferenceServer::Statusz() const {
  std::string out = "=== qdb inference server ===\n";
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    out += StrCat("state: started=", started_ ? 1 : 0, " accepting=",
                  (started_ && !stopping_.load(std::memory_order_relaxed) &&
                   !shut_down_)
                      ? 1
                      : 0,
                  " stopping=",
                  stopping_.load(std::memory_order_relaxed) ? 1 : 0,
                  " shut_down=", shut_down_ ? 1 : 0, "\n");
    out += StrCat("queue: ", queue_depth(), " / ", options_.queue_capacity,
                  " (shards=", shards_.size(),
                  " dispatchers=", dispatchers_.size(),
                  " max_shard_depth=", max_shard_depth(), ")\n");
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    out += StrCat("  shard ", i, ": ",
                  shards_[i]->depth.load(std::memory_order_relaxed), " / ",
                  per_shard_capacity(), "\n");
  }
  if (const WarmupStatus warm = warmup_status(); warm.target > 0) {
    out += StrCat("warmup: ", warm.ready, "/", warm.target,
                  " resident failed=", warm.failed,
                  " admitting=", warm.admitting ? 1 : 0,
                  " active=", warm.active ? 1 : 0, "\n");
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out += StrCat("requests: submitted=", stats_.submitted,
                  " completed=", stats_.completed,
                  " cache_hits=", stats_.cache_hits,
                  " degraded=", stats_.degraded,
                  " rejected=", stats_.rejected,
                  " quota_rejected=", stats_.quota_rejected,
                  " expired=", stats_.expired, " failed=", stats_.failed,
                  " batches=", stats_.batches, " steals=", stats_.steals,
                  " fifo_violations=", stats_.fifo_violations, "\n");
  }
  if (quotas_ != nullptr) {
    const std::vector<TenantQuotaManager::TenantState> tenants =
        quotas_->Snapshot();
    out += StrCat("tenants: ", tenants.size(), "\n");
    for (const auto& t : tenants) {
      if (t.metered) {
        // Publishing the token gauge here (not on the Submit hot path)
        // mirrors how SLO burn gauges refresh on Report.
        Metrics().quota_tokens_by->With(t.tenant)->Set(t.tokens);
        out += StrCat("  ", t.tenant, ": tokens=", t.tokens, "/", t.burst,
                      " rate=", t.rate_per_s, "/s admitted=", t.admitted,
                      " rejected=", t.rejected, "\n");
      } else {
        out += StrCat("  ", t.tenant, ": unmetered admitted=", t.admitted,
                      "\n");
      }
    }
  }
  const ResultCache::Stats cache = result_cache_.stats();
  out += StrCat("cache: size=", cache.size, "/", cache.capacity,
                " hits=", cache.hits, " misses=", cache.misses,
                " stale_hits=", cache.stale_hits,
                " evictions=", cache.evictions, "\n");
  {
    // Storage tier: the registry's byte budget and residency counters,
    // plus cold-start latency quantiles from the reload path.
    const StoreStatus store = registry_.store_status();
    out += StrCat("store: budget_bytes=", store.budget_bytes,
                  store.budget_bytes == 0 ? " (unlimited)" : "",
                  " resident_bytes=", store.resident_bytes,
                  " models=", store.resident_models, "/",
                  store.registered_models,
                  " evicted=", store.evicted_models,
                  " slices=", store.num_slices,
                  " evictions=", store.evictions,
                  " reloads=", store.reloads, "\n");
    const obs::Histogram* cold = obs::GetHistogram("store.cold_start_us");
    if (cold->TotalCount() > 0) {
      out += StrCat("  cold_start_us: count=", cold->TotalCount(),
                    " p50=", cold->ApproxQuantile(0.5),
                    " p99=", cold->ApproxQuantile(0.99),
                    cold->OverflowCount() > 0 ? " (clamped)" : "", "\n");
    }
  }
  {
    std::lock_guard<std::mutex> lock(breakers_mu_);
    out += StrCat("breakers: ", breakers_.size(), "\n");
    for (const auto& [name, breaker] : breakers_) {
      const fault::CircuitBreaker::Stats bs = breaker->stats();
      out += StrCat("  ", name, ": ", BreakerStateName(breaker->state()),
                    " (opened=", bs.opened, " shed=", bs.shed,
                    " allowed=", bs.allowed, ")\n");
    }
  }
  {
    // Armed fault points with per-point trigger counts: a chaos run is
    // auditable from the same page as everything it perturbs — "the system
    // survived" means nothing without "and the faults actually fired".
    const std::vector<fault::FaultInjector::ArmedPointStatus> armed =
        fault::FaultInjector::Global().SnapshotArmed();
    out += StrCat("faults: ", armed.size(), " armed\n");
    for (const auto& point : armed) {
      out += StrCat("  ", point.point,
                    ": kind=", fault::FaultKindName(point.spec.kind),
                    " p=", point.spec.probability,
                    " evaluations=", point.evaluations,
                    " fired=", point.fired);
      if (!point.spec.target.empty()) {
        out += StrCat(" target=", point.spec.target);
      }
      out += "\n";
    }
  }
  if (slo_ != nullptr) {
    out += "slo:\n";
    for (const obs::SloModelStatus& model :
         slo_->Report(obs::TraceNowMicros())) {
      out += StrCat("  ", model.model,
                    " (availability=", model.objective.availability,
                    model.breached ? ") BREACHED\n" : ") ok\n");
      for (const obs::SloWindowStatus& w : model.windows) {
        out += StrCat("    ", w.window_s, "s: total=", w.total,
                      " error_rate=", w.error_rate,
                      " burn_rate=", w.burn_rate, "\n");
      }
    }
  }
  // Slowest recent request traces, from the ring buffer: grep these ids in
  // the Chrome-trace export to see the full span tree.
  std::vector<obs::TraceEvent> roots;
  for (const obs::TraceEvent& e : obs::TraceLog::Global().Snapshot()) {
    if (e.name != nullptr && std::strcmp(e.name, "serve.request") == 0) {
      roots.push_back(e);
    }
  }
  std::sort(roots.begin(), roots.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.duration_us > b.duration_us;
            });
  if (!roots.empty()) {
    out += "slowest recent requests:\n";
    for (size_t i = 0; i < roots.size() && i < 5; ++i) {
      out += StrFormat("  trace=%016llx %lldus\n",
                       static_cast<unsigned long long>(roots[i].trace_id),
                       static_cast<long long>(roots[i].duration_us));
    }
  }
  // Latency quantiles; a "(clamped: ...)" marker means samples overflowed
  // the histogram's last bound, so high quantiles are lower bounds, not
  // estimates.
  out += "latency:\n";
  for (const char* name : {"serve.queue_wait_us", "serve.batch_size"}) {
    const obs::Histogram* h = obs::GetHistogram(name);
    if (h == nullptr || h->TotalCount() == 0) continue;
    out += StrCat("  ", name, ": p50=", h->ApproxQuantile(0.50),
                  " p90=", h->ApproxQuantile(0.90),
                  " p99=", h->ApproxQuantile(0.99));
    if (h->OverflowCount() > 0) {
      out += StrCat(" (clamped: ", h->OverflowCount(),
                    " samples above last bound ", h->bounds().back(), ")");
    }
    out += "\n";
  }
  return out;
}

Status InferenceServer::Healthz() const {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (shut_down_ || stopping_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("server is shut down or draining");
    }
    if (!started_) {
      return Status::FailedPrecondition("server not started");
    }
  }
  // The warm-restart state is distinct from both "down" and "degraded":
  // the server is healthy and working, but intentionally not admitting
  // until the recovered warm set is resident. Orchestrators should treat
  // it as "starting", not "failing".
  if (warming_.load(std::memory_order_relaxed) &&
      !warm_admitting_.load(std::memory_order_relaxed)) {
    return Status::Unavailable(
        StrCat("warming: ", warm_ready_.load(std::memory_order_relaxed),
               " of ", warm_target_.load(std::memory_order_relaxed),
               " warm-set models resident"));
  }
  // Health keys off the *deepest* shard, not the total: one saturated shard
  // rejects its models' requests even while the aggregate depth — an
  // average across healthy shards — still looks fine.
  const size_t cap = per_shard_capacity();
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i]->depth.load(std::memory_order_relaxed) >= cap) {
      return Status::Unavailable(StrCat("queue shard ", i, " at capacity (",
                                        cap, " of ",
                                        options_.queue_capacity,
                                        " total)"));
    }
  }
  if (slo_ != nullptr) {
    for (const obs::SloModelStatus& model :
         slo_->Report(obs::TraceNowMicros())) {
      if (model.breached) {
        return Status::Unavailable(
            StrCat("SLO breached for model '", model.model,
                   "': error budget burning in every window"));
      }
    }
  }
  return Status::OK();
}

fault::CircuitBreaker* InferenceServer::BreakerFor(
    const ServableModel& servable) {
  const std::string key = StrCat(servable.name(), ":", servable.version());
  std::lock_guard<std::mutex> lock(breakers_mu_);
  std::unique_ptr<fault::CircuitBreaker>& slot = breakers_[key];
  if (slot == nullptr) {
    slot = std::make_unique<fault::CircuitBreaker>(key, options_.breaker);
  }
  return slot.get();
}

bool InferenceServer::TryServeStale(Pending& pending) {
  if (pending.cache_key.empty()) return false;
  // The degradation decision itself is a span: when a request resolves
  // stale, its trace shows *why* (this rung ran) and *when*.
  obs::ContextGuard context_guard(pending.ctx);
  QDB_TRACE_SCOPE("serve.degraded.try_stale", "serve");
  std::optional<InferenceValue> hit =
      result_cache_.LookupStale(pending.cache_key, options_.max_stale_age_us);
  if (!hit.has_value()) return false;
  Metrics().stale_hits->Increment();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.degraded;
  }
  const long latency_us = MicrosBetween(pending.admitted, Clock::now());
  RecordTerminal("degraded", pending.servable->name(), pending.kind,
                 pending.ctx, pending.submit_trace_us, latency_us, true);
  InferenceResponse response;
  response.result = std::move(*hit);
  response.model_version = pending.servable->version();
  response.from_cache = true;
  response.degraded = true;
  response.trace.trace_id = pending.ctx.trace_id;
  response.trace.total_us = latency_us;
  pending.promise.set_value(std::move(response));
  return true;
}

void InferenceServer::DispatcherLoop(size_t home_shard) {
  while (true) {
    std::vector<Pending> batch = NextBatch(home_shard);
    if (batch.empty()) return;  // Drained and stopping.
    ExecuteBatch(std::move(batch));
  }
}

std::vector<InferenceServer::Pending> InferenceServer::PopBatchLocked(
    size_t shard_index, std::unique_lock<std::mutex>& lock,
    bool allow_window) {
  Shard& shard = *shards_[shard_index];
  // Pick the first leader whose stream is not mid-window on another
  // dispatcher: popping a later same-stream request while its earlier
  // siblings sit in an open batch would dispatch the stream out of order.
  auto leader_it = shard.queue.begin();
  for (; leader_it != shard.queue.end(); ++leader_it) {
    if (shard.open_streams.count(
            {static_cast<const void*>(leader_it->servable.get()),
             static_cast<int>(leader_it->kind)}) == 0) {
      break;
    }
  }
  if (leader_it == shard.queue.end()) return {};
  std::vector<Pending> batch;
  batch.push_back(std::move(*leader_it));
  shard.queue.erase(leader_it);
  const ServableModel* leader = batch.front().servable.get();
  const RequestKind kind = batch.front().kind;
  const std::pair<const void*, int> stream_key = {
      static_cast<const void*>(leader), static_cast<int>(kind)};
  shard.open_streams.insert(stream_key);

  const auto coalesce_pass = [&] {
    for (auto it = shard.queue.begin();
         it != shard.queue.end() && batch.size() < options_.max_batch_size;) {
      if (it->servable.get() == leader && it->kind == kind) {
        batch.push_back(std::move(*it));
        it = shard.queue.erase(it);
      } else {
        ++it;
      }
    }
  };

  if (allow_window) {
    // Under shard pressure, shrink the coalescing window: clearing backlog
    // fast matters more than filling each batch to the brim.
    long wait_us = options_.max_wait_us;
    if (options_.pressure_watermark > 0 &&
        static_cast<double>(shard.queue.size()) >=
            options_.pressure_watermark *
                static_cast<double>(per_shard_capacity())) {
      wait_us /= 4;
      Metrics().window_shrinks->Increment();
    }
    const Clock::time_point close =
        Clock::now() + std::chrono::microseconds(wait_us);

    // Coalesce until the batch is full or the window closes. Each pass
    // pulls every compatible request currently queued; between passes we
    // sleep on the shard cv so new submissions extend the batch without
    // busy-waiting.
    while (batch.size() < options_.max_batch_size) {
      coalesce_pass();
      if (batch.size() >= options_.max_batch_size ||
          stopping_.load(std::memory_order_relaxed)) {
        break;
      }
      if (shard.cv.wait_until(lock, close) == std::cv_status::timeout) {
        // Window closed; take any stragglers that arrived with the timeout.
        coalesce_pass();
        break;
      }
    }
  } else {
    // Stolen (or drain-time) batches close immediately: a thief only
    // exists because this shard is backlogged while it sat idle, so
    // clearing queued work beats waiting for stragglers.
    coalesce_pass();
  }

  // The batch is final: the stream closes (later arrivals are again fair
  // game for any popper — they carry higher seqs, so dispatch order holds).
  shard.open_streams.erase(stream_key);

  // FIFO dispatch audit: within one (servable, kind) stream, batch members
  // must leave the shard in admission order. Coalescing scans front to
  // back, streams never migrate shards, and open streams are skipped by
  // concurrent poppers, so seq numbers popped here must be strictly
  // increasing per stream — home pop or steal alike.
  uint64_t& last = shard.last_dispatched[stream_key];
  long violations = 0;
  for (const Pending& member : batch) {
    if (member.seq <= last) {
      ++violations;
    } else {
      last = member.seq;
    }
  }
  if (violations > 0) {
    Metrics().fifo_violations->Increment(violations);
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.fifo_violations += violations;
  }

  shard.depth.store(shard.queue.size(), std::memory_order_relaxed);
  if (!shard.queue.empty()) shard.cv.notify_one();  // Work left for peers.
  return batch;
}

std::vector<InferenceServer::Pending> InferenceServer::NextBatch(
    size_t home_shard) {
  Shard& home = *shards_[home_shard];
  const long poll_us = options_.steal_poll_us > 0 ? options_.steal_poll_us
                                                  : options_.max_wait_us;
  // Fault point "serve.queue_wait" injects at most one spurious wakeup per
  // NextBatch call (bounded so an always-on fault cannot livelock): the
  // outer loop must tolerate waking with nothing to do.
  bool woke_spuriously = false;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(home.mu);
      const auto wake = [&] {
        if (stopping_.load(std::memory_order_relaxed) ||
            !home.queue.empty()) {
          return true;
        }
        if (!woke_spuriously && fault::SpuriousWake("serve.queue_wait")) {
          woke_spuriously = true;
          return true;
        }
        return false;
      };
      if (shards_.size() == 1) {
        // Nothing to steal from: idle exactly like the pre-sharding server
        // (indefinite wait, no periodic timeout churn — wakeups that cost
        // real CPU when dispatchers share cores with clients).
        home.cv.wait(lock, wake);
      } else {
        home.cv.wait_for(lock, std::chrono::microseconds(poll_us), wake);
      }
      if (!home.queue.empty()) {
        // Home work coalesces with the normal window: the dispatcher owns
        // this shard and can afford to wait for stragglers.
        std::vector<Pending> batch = PopBatchLocked(
            home_shard, lock, /*allow_window=*/true);
        if (!batch.empty()) {
          lock.unlock();
          PublishDepth(home_shard);
          return batch;
        }
        // Every queued stream is mid-window on a peer. The wait predicate
        // above is already true (queue non-empty), so looping would spin
        // on this lock until the peer's window closes — instead sleep
        // until that batch finalizes (it notifies when work remains) or
        // the poll interval elapses, then re-evaluate.
        if (!stopping_.load(std::memory_order_relaxed)) {
          home.cv.wait_for(lock, std::chrono::microseconds(poll_us));
          continue;
        }
      }
    }

    // Home is empty: scan the other shards for stealable work. A steal
    // takes the victim's whole front batch (leader plus everything
    // coalescible, front to back) so same-stream ordering is untouched.
    const bool stopping = stopping_.load(std::memory_order_relaxed);
    for (size_t offset = 1; offset < shards_.size() + (stopping ? 1 : 0);
         ++offset) {
      // When draining we must also re-check the home shard (offset lands
      // on it last): a Submit may have raced in after the wait above.
      const size_t victim_index = (home_shard + offset) % shards_.size();
      Shard& victim = *shards_[victim_index];
      // Polling thieves skip a busy victim lock rather than pile onto it;
      // the drain path must not skip work, so it blocks.
      std::unique_lock<std::mutex> lock(victim.mu, std::defer_lock);
      if (stopping) {
        lock.lock();
      } else if (!lock.try_lock()) {
        continue;
      }
      if (victim.queue.empty()) continue;
      std::vector<Pending> batch = PopBatchLocked(
          victim_index, lock, /*allow_window=*/false);
      if (batch.empty()) continue;  // Every queued stream is mid-window.
      lock.unlock();
      PublishDepth(victim_index);
      if (victim_index != home_shard) {
        Metrics().steals->Increment();
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.steals;
      }
      return batch;
    }
    if (stopping) return {};  // Every shard drained; exit.
  }
}

void InferenceServer::CancelExpired(std::vector<Pending>& live,
                                    Clock::time_point cutoff,
                                    const char* why) {
  const Clock::time_point now = Clock::now();
  std::vector<Pending> kept;
  std::vector<Pending> dead;
  kept.reserve(live.size());
  for (auto& pending : live) {
    if (pending.deadline < cutoff) {
      dead.push_back(std::move(pending));
    } else {
      kept.push_back(std::move(pending));
    }
  }
  // Stats before promises: a client woken by .get() must already see its
  // request in a terminal bucket.
  if (!dead.empty()) {
    Metrics().expired->Increment(static_cast<long>(dead.size()));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.expired += static_cast<long>(dead.size());
    }
    for (auto& pending : dead) {
      RecordTerminal("expired", pending.servable->name(), pending.kind,
                     pending.ctx, pending.submit_trace_us,
                     MicrosBetween(pending.admitted, now), false);
      pending.promise.set_value(Status::DeadlineExceeded(StrCat(
          "request deadline expired ", why, " after ",
          MicrosBetween(pending.admitted, now),
          "us; it was cancelled before (further) execution")));
    }
  }
  live.swap(kept);
}

void InferenceServer::ExecuteBatch(std::vector<Pending> batch) {
  std::vector<Pending> live = std::move(batch);
  const std::shared_ptr<const ServableModel> servable = live.front().servable;
  const RequestKind kind = live.front().kind;
  // The batch executes inside the leader's trace; every coalesced member is
  // attached below with a link event carrying its own trace id, so one
  // batch fans a causal edge into N request trees.
  obs::ContextGuard context_guard(live.front().ctx);
  QDB_TRACE_SCOPE("InferenceServer::ExecuteBatch", "serve");
  fault::CircuitBreaker* breaker =
      options_.enable_breaker ? BreakerFor(*servable) : nullptr;
  const int max_attempts = std::max(options_.retry.max_attempts, 1);
  Rng jitter_rng(options_.retry_jitter_seed +
                 batch_seq_.fetch_add(1, std::memory_order_relaxed));
  Backoff backoff(options_.retry, jitter_rng.Split());

  // Cancel expired requests before any simulation happens.
  const Clock::time_point dispatch_time = Clock::now();
  CancelExpired(live, dispatch_time, "in queue");
  if (live.empty()) return;

  Metrics().batches->Increment();
  Metrics().batch_size->Observe(static_cast<double>(live.size()));
  for (const auto& pending : live) {
    Metrics().queue_wait_us->Observe(static_cast<double>(
        MicrosBetween(pending.admitted, dispatch_time)));
  }
  if (obs::TracingEnabled()) {
    const int64_t now_us = obs::TraceNowMicros();
    const obs::RequestContext batch_ctx = obs::CurrentContext();
    for (const auto& pending : live) {
      if (!pending.ctx.valid()) continue;
      // Each member's queue wait, closed at dispatch, in its own trace…
      obs::RecordSpan("serve.queue_wait", "serve", pending.submit_trace_us,
                      now_us - pending.submit_trace_us, pending.ctx.trace_id,
                      obs::NewSpanId(), pending.ctx.span_id);
      // …and the cross-trace edge: batch span → member trace.
      obs::RecordSpan("serve.batch.member", "serve", now_us, 0,
                      batch_ctx.trace_id, obs::NewSpanId(), batch_ctx.span_id,
                      pending.ctx.trace_id);
    }
  }

  int attempt = 0;
  long exec_us_total = 0;
  Status last;
  while (true) {
    ++attempt;
    std::vector<DVector> inputs;
    inputs.reserve(live.size());
    for (const auto& pending : live) inputs.push_back(pending.input);

    // Fault point "serve.dispatch" (scoped by model name) fires once per
    // attempt, so injected transient errors exercise the retry loop and a
    // target filter poisons one servable while others stay healthy.
    const Clock::time_point attempt_start = Clock::now();
    Result<std::vector<InferenceValue>> results = [&] {
      QDB_TRACE_SCOPE("serve.attempt", "serve");
      Status injected =
          fault::MaybeInject("serve.dispatch", servable->name());
      return injected.ok()
                 ? servable->RunBatch(kind, inputs)
                 : Result<std::vector<InferenceValue>>(std::move(injected));
    }();
    const long attempt_us = MicrosBetween(attempt_start, Clock::now());
    exec_us_total += attempt_us;
    if (breaker != nullptr) {
      if (results.ok()) {
        breaker->RecordSuccess(attempt_us);
      } else {
        breaker->RecordFailure();
      }
    }

    if (results.ok()) {
      Metrics().dispatch_attempts->Observe(static_cast<double>(attempt));
      // Stats before promises: a client woken by .get() must already see
      // its request in a terminal bucket.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        stats_.completed += static_cast<long>(live.size());
        ++stats_.batches;
      }
      const Clock::time_point resolved_time = Clock::now();
      for (size_t i = 0; i < live.size(); ++i) {
        if (!live[i].cache_key.empty()) {
          result_cache_.Insert(live[i].cache_key, results.value()[i]);
        }
        InferenceResponse response;
        response.result = std::move(results.value()[i]);
        response.model_version = live[i].servable->version();
        response.attempts = attempt;
        response.batch_size = live.size();
        response.queue_wait_us =
            MicrosBetween(live[i].admitted, dispatch_time);
        response.trace.trace_id = live[i].ctx.trace_id;
        response.trace.queue_wait_us = response.queue_wait_us;
        response.trace.exec_us = exec_us_total;
        response.trace.retry_backoff_us = live[i].retry_backoff_us;
        response.trace.attempts = attempt;
        response.trace.total_us =
            MicrosBetween(live[i].admitted, resolved_time);
        RecordTerminal("ok", servable->name(), kind, live[i].ctx,
                       live[i].submit_trace_us, response.trace.total_us,
                       true);
        live[i].promise.set_value(std::move(response));
      }
      return;
    }

    last = results.status();
    if (!options_.retry.IsRetryable(last) || attempt >= max_attempts) break;

    const long delay_us = backoff.NextDelayUs();
    Metrics().retries->Increment();
    // Deadline-aware backoff: a request whose deadline falls inside the
    // sleep can never see a useful attempt — resolve it now, before the
    // simulator wastes another pass on it.
    CancelExpired(live,
                  Clock::now() + std::chrono::microseconds(delay_us),
                  "during the retry backoff");
    if (live.empty()) {
      Metrics().dispatch_attempts->Observe(static_cast<double>(attempt));
      return;
    }
    const int64_t backoff_start_us = obs::TraceNowMicros();
    {
      // Interruptible sleep on the dedicated shutdown cv: Shutdown cuts it
      // short (the remaining attempts then run back to back, keeping the
      // drain bounded), and shard-cv notifies meant to hand work to idle
      // dispatchers are never consumed by a retrying one.
      std::unique_lock<std::mutex> lock(backoff_mu_);
      if (!stopping_.load(std::memory_order_relaxed)) {
        shutdown_cv_.wait_for(lock, std::chrono::microseconds(delay_us),
                              [this] {
                                return stopping_.load(
                                    std::memory_order_relaxed);
                              });
      }
    }
    if (obs::TracingEnabled()) {
      const obs::RequestContext batch_ctx = obs::CurrentContext();
      obs::RecordSpan("serve.retry_backoff", "serve", backoff_start_us,
                      obs::TraceNowMicros() - backoff_start_us,
                      batch_ctx.trace_id, obs::NewSpanId(),
                      batch_ctx.span_id);
    }
    for (auto& pending : live) pending.retry_backoff_us += delay_us;
    CancelExpired(live, Clock::now(), "between retries");
    if (live.empty()) {
      Metrics().dispatch_attempts->Observe(static_cast<double>(attempt));
      return;
    }
  }

  Metrics().dispatch_attempts->Observe(static_cast<double>(attempt));
  Metrics().failed->Increment(static_cast<long>(live.size()));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.failed += static_cast<long>(live.size());
  }
  const Clock::time_point failed_time = Clock::now();
  for (auto& pending : live) {
    RecordTerminal("failed", servable->name(), kind, pending.ctx,
                   pending.submit_trace_us,
                   MicrosBetween(pending.admitted, failed_time), false);
    pending.promise.set_value(last);
  }
}

}  // namespace serve
}  // namespace qdb
