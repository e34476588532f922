// E18 — Inference serving: dynamic micro-batching vs one-request-at-a-time.
//
// Headline comparison, at 12 qubits with 8 concurrent clients: the
// pre-serving path recomputes everything per request (a kernel-SVM request
// rebuilds the full CrossMatrix against the support set — |SV| + 1
// encodings; a variational request rebuilds and re-lowers its circuit),
// while the serving runtime amortizes — support vectors are encoded once at
// model load, variational requests replay one pre-compiled symbolic-feature
// program, and queued requests coalesce into micro-batches that fan out
// across the thread pool. Headline result: served kernel-SVM throughput is
// >= 2x the single-request baseline (7.7x in BENCH_serve.json on a 4-core
// host: the per-request encoding work drops from |SV| + 1 points to 1;
// angle encodings are factored per qubit, so neither path simulates). The VQC
// comparison is informative rather than a win condition — its per-request
// circuit is sub-millisecond at 12 qubits, so on a single core dispatch
// overhead dominates and serving pays for itself only with multiple cores
// (batch fan-out) or repeated queries (see BM_ResultCacheHitRate, where
// the cache turns ~99% of a recurring workload into immediate returns).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fault/fault_injector.h"
#include "kernel/quantum_kernel.h"
#include "serve/inference_server.h"
#include "serve/model_registry.h"
#include "serve/servable.h"
#include "sim/statevector_simulator.h"
#include "variational/ansatz.h"

namespace qdb {
namespace serve {
namespace {

constexpr int kQubits = 12;
constexpr int kSupportVectors = 24;
constexpr int kClients = 8;
constexpr int kRequestsPerClient = 8;
constexpr int kTotalRequests = kClients * kRequestsPerClient;

enum Mode { kSingleRequest = 0, kServedBatched = 1 };

ModelArtifact SyntheticKernelArtifact() {
  Rng rng(29);
  ModelArtifact a;
  a.type = ModelType::kKernelSvm;
  a.name = "bench-qsvm";
  a.num_features = kQubits;
  a.kernel_encoding = KernelEncodingKind::kAngle;
  a.kernel_scale = 1.0;
  a.bias = 0.05;
  for (int i = 0; i < kSupportVectors; ++i) {
    SupportVector sv;
    sv.coeff = (i % 2 == 0 ? 1.0 : -1.0) / kSupportVectors;
    sv.features.resize(kQubits);
    for (auto& f : sv.features) f = rng.Uniform(0.0, M_PI);
    a.support_vectors.push_back(std::move(sv));
  }
  return a;
}

ModelArtifact SyntheticVqcArtifact(
    Entanglement entanglement = Entanglement::kLinear) {
  Rng rng(31);
  ModelArtifact a;
  a.type = ModelType::kVqcClassifier;
  a.name = "bench-vqc";
  a.num_features = kQubits;
  a.encoding = VqcEncoding::kAngle;
  a.ansatz_layers = 2;
  a.entanglement = entanglement;
  a.feature_scale = 1.0;
  a.params.resize(RealAmplitudesParamCount(kQubits, a.ansatz_layers));
  for (auto& p : a.params) p = rng.Uniform(-0.5, 0.5);
  return a;
}

std::vector<DVector> MakeQueries(int count, uint64_t seed) {
  Rng rng(seed);
  std::vector<DVector> queries(count, DVector(kQubits));
  for (auto& q : queries) {
    for (auto& v : q) v = rng.Uniform(0.0, M_PI);
  }
  return queries;
}

/// Drives the server with kClients concurrent threads, each submitting its
/// slice of `queries` and blocking on the responses. Returns the number of
/// successful responses.
int RunClients(InferenceServer& server, const std::string& model,
               const std::vector<DVector>& queries) {
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  const int per_client = static_cast<int>(queries.size()) / kClients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<Result<InferenceResponse>>> futures;
      for (int i = 0; i < per_client; ++i) {
        InferenceRequest request;
        request.model = model;
        request.input = queries[c * per_client + i];
        futures.push_back(server.Submit(std::move(request)));
      }
      for (auto& f : futures) {
        if (f.get().ok()) ok_count.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  return ok_count.load();
}

void BM_KernelSvmServing(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  ModelArtifact artifact = SyntheticKernelArtifact();
  std::vector<DVector> queries = MakeQueries(kTotalRequests, 41);

  if (mode == kSingleRequest) {
    // Pre-serving path: every request recomputes the cross matrix against
    // the support set from scratch (|SV| + 1 encoding circuits each).
    FidelityQuantumKernel kernel = MakeAngleKernel(artifact.kernel_scale);
    std::vector<DVector> sv_features;
    for (const auto& sv : artifact.support_vectors) {
      sv_features.push_back(sv.features);
    }
    for (auto _ : state) {
      for (const auto& x : queries) {
        auto cross = kernel.CrossMatrix({x}, sv_features);
        if (!cross.ok()) {
          state.SkipWithError(cross.status().ToString().c_str());
          return;
        }
        double decision = artifact.bias;
        for (int j = 0; j < kSupportVectors; ++j) {
          decision += artifact.support_vectors[j].coeff *
                      cross.value()(0, j).real();
        }
        benchmark::DoNotOptimize(decision);
      }
    }
    state.SetLabel("single_request");
  } else {
    ModelRegistry registry;
    auto servable = registry.Register(artifact);
    if (!servable.ok()) {
      state.SkipWithError(servable.status().ToString().c_str());
      return;
    }
    ServerOptions opts;
    opts.max_batch_size = 16;
    opts.max_wait_us = 100;
    opts.result_cache_capacity = 0;  // Measure compute, not memoization.
    InferenceServer server(registry, opts);
    if (!server.Start().ok()) {
      state.SkipWithError("server failed to start");
      return;
    }
    for (auto _ : state) {
      const int ok_count = RunClients(server, "bench-qsvm", queries);
      if (ok_count != kTotalRequests) {
        state.SkipWithError("requests failed");
        return;
      }
    }
    const auto stats = server.stats();
    server.Shutdown();
    state.SetLabel("served_batched");
    if (stats.batches > 0) {
      state.counters["avg_batch"] =
          static_cast<double>(stats.completed) /
          static_cast<double>(stats.batches);
    }
  }
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kTotalRequests),
      benchmark::Counter::kIsRate);
  state.counters["qubits"] = kQubits;
  state.counters["clients"] = mode == kServedBatched ? kClients : 1;
}

BENCHMARK(BM_KernelSvmServing)
    ->Arg(kSingleRequest)
    ->Arg(kServedBatched)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_VqcServing(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  ModelArtifact artifact = SyntheticVqcArtifact();
  std::vector<DVector> queries = MakeQueries(kTotalRequests, 43);

  if (mode == kSingleRequest) {
    // Pre-serving path: per request, build the bound circuit and run it
    // through the simulator (circuit construction + lowering every time —
    // what VqcClassifier::Score does under the hood).
    StateVectorSimulator simulator;
    for (auto _ : state) {
      for (const auto& x : queries) {
        auto circuit = BuildBoundInferenceCircuit(artifact, x);
        if (!circuit.ok()) {
          state.SkipWithError(circuit.status().ToString().c_str());
          return;
        }
        auto result = simulator.Run(circuit.value());
        if (!result.ok()) {
          state.SkipWithError(result.status().ToString().c_str());
          return;
        }
        benchmark::DoNotOptimize(ExpectationZ(result.value(), 0));
      }
    }
    state.SetLabel("single_request");
  } else {
    ModelRegistry registry;
    auto servable = registry.Register(artifact);
    if (!servable.ok()) {
      state.SkipWithError(servable.status().ToString().c_str());
      return;
    }
    ServerOptions opts;
    opts.max_batch_size = 16;
    opts.max_wait_us = 100;
    opts.result_cache_capacity = 0;
    InferenceServer server(registry, opts);
    if (!server.Start().ok()) {
      state.SkipWithError("server failed to start");
      return;
    }
    for (auto _ : state) {
      const int ok_count = RunClients(server, "bench-vqc", queries);
      if (ok_count != kTotalRequests) {
        state.SkipWithError("requests failed");
        return;
      }
    }
    const auto stats = server.stats();
    server.Shutdown();
    state.SetLabel("served_batched");
    if (stats.batches > 0) {
      state.counters["avg_batch"] =
          static_cast<double>(stats.completed) /
          static_cast<double>(stats.batches);
    }
  }
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kTotalRequests),
      benchmark::Counter::kIsRate);
  state.counters["qubits"] = kQubits;
  state.counters["clients"] = mode == kServedBatched ? kClients : 1;
}

BENCHMARK(BM_VqcServing)
    ->Arg(kSingleRequest)
    ->Arg(kServedBatched)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// One servable batch of range(1) inputs, called directly (no server, no
// queue): the servable's own execution per batch. range(0) picks the
// ansatz entanglement. Qubit 0's light cone of the linear 2-layer VQC is 3
// qubits wide; a circular entangler couples qubit 0 to qubit 11, so its
// cone is the whole 12-qubit register and every input replays a 2^12 state.
void BM_VqcServableBatch(benchmark::State& state) {
  const auto entanglement = static_cast<Entanglement>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  ModelRegistry registry;
  auto servable = registry.Register(SyntheticVqcArtifact(entanglement));
  if (!servable.ok()) {
    state.SkipWithError(servable.status().ToString().c_str());
    return;
  }
  const std::vector<DVector> inputs = MakeQueries(batch, 47);
  for (auto _ : state) {
    auto values = servable.value()->RunBatch(RequestKind::kPredict, inputs);
    if (!values.ok()) {
      state.SkipWithError(values.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(values.value().data());
  }
  state.SetLabel(entanglement == Entanglement::kLinear ? "linear" : "circular");
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * batch),
      benchmark::Counter::kIsRate);
}

BENCHMARK(BM_VqcServableBatch)
    ->ArgNames({"ent", "batch"})
    ->ArgsProduct({{static_cast<int>(Entanglement::kLinear),
                    static_cast<int>(Entanglement::kCircular)},
                   {1, 2, 4, 16}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_ResultCacheHitRate(benchmark::State& state) {
  // Repeated-query workload (a cardinality model probed with recurring
  // predicate templates): with the result cache on, only the first pass
  // simulates.
  ModelArtifact artifact = SyntheticVqcArtifact();
  ModelRegistry registry;
  if (!registry.Register(artifact).ok()) {
    state.SkipWithError("register failed");
    return;
  }
  ServerOptions opts;
  opts.max_batch_size = 16;
  opts.max_wait_us = 200;
  opts.result_cache_capacity = 1024;
  InferenceServer server(registry, opts);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }
  std::vector<DVector> queries = MakeQueries(16, 47);  // 4x reuse per pass.
  std::vector<DVector> workload;
  for (int r = 0; r < 4; ++r) {
    workload.insert(workload.end(), queries.begin(), queries.end());
  }
  for (auto _ : state) {
    if (RunClients(server, "bench-vqc", workload) !=
        static_cast<int>(workload.size())) {
      state.SkipWithError("requests failed");
      return;
    }
  }
  const auto stats = server.stats();
  server.Shutdown();
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * workload.size()),
      benchmark::Counter::kIsRate);
  state.counters["cache_hit_rate"] =
      static_cast<double>(stats.cache_hits) /
      static_cast<double>(stats.submitted);
}

BENCHMARK(BM_ResultCacheHitRate)->Unit(benchmark::kMillisecond)->UseRealTime();

enum BreakerMode { kHealthyAlone = 0, kPoisonedCoTenant = 1 };

void BM_BreakerIsolation(benchmark::State& state) {
  // A poisoned co-tenant (every execution fails via an injected fault
  // targeted at its name) must not drag down a healthy model sharing the
  // server: its circuit breaker opens after a handful of failures and sheds
  // the rest at admission, so dispatchers stop burning retry attempts on
  // doomed batches. Compare healthy_p99_us across the two modes — the
  // acceptance bar is < 10% regression against the healthy-alone baseline.
  const int mode = static_cast<int>(state.range(0));
  ModelArtifact healthy = SyntheticVqcArtifact();
  ModelRegistry registry;
  if (!registry.Register(healthy).ok()) {
    state.SkipWithError("register failed");
    return;
  }
  if (mode == kPoisonedCoTenant) {
    ModelArtifact bad = SyntheticVqcArtifact();
    bad.name = "bench-vqc-bad";
    if (!registry.Register(bad).ok()) {
      state.SkipWithError("register failed");
      return;
    }
    fault::FaultSpec spec;
    spec.kind = fault::FaultKind::kError;
    spec.target = "bench-vqc-bad";
    fault::FaultInjector::Global().Arm("servable.run", spec);
  }

  ServerOptions opts;
  opts.max_batch_size = 16;
  opts.max_wait_us = 100;
  opts.num_dispatchers = 2;  // The poisoned model gets its own lane.
  opts.result_cache_capacity = 0;
  opts.retry.max_attempts = 2;
  opts.retry.initial_backoff_us = 200;
  opts.breaker.min_samples = 4;
  opts.breaker.open_duration_us = 60'000'000;  // Stays open once tripped.
  InferenceServer server(registry, opts);
  if (!server.Start().ok()) {
    state.SkipWithError("server failed to start");
    return;
  }

  std::vector<DVector> queries = MakeQueries(kTotalRequests, 53);
  std::vector<double> healthy_latencies_us;
  for (auto _ : state) {
    std::vector<std::thread> poison_clients;
    std::atomic<bool> poison_running{true};
    if (mode == kPoisonedCoTenant) {
      // Two paced closed-loop clients hammer the poisoned model for the
      // whole measurement; after the breaker opens these become
      // admission-time sheds rather than dispatcher work. The pacing keeps
      // the comparison about breaker isolation, not about spinning shed
      // loops stealing CPU from the healthy clients.
      for (int c = 0; c < 2; ++c) {
        poison_clients.emplace_back([&, c] {
          Rng rng(60 + c);
          while (poison_running.load(std::memory_order_relaxed)) {
            InferenceRequest request;
            request.model = "bench-vqc-bad";
            request.input = queries[rng.UniformInt(0, kTotalRequests - 1)];
            (void)server.Submit(std::move(request)).get();
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        });
      }
    }
    // Healthy traffic, per-request latency measured client-side.
    std::vector<std::thread> clients;
    std::mutex latencies_mu;
    const int per_client = kTotalRequests / kClients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        std::vector<double> local;
        local.reserve(per_client);
        for (int i = 0; i < per_client; ++i) {
          InferenceRequest request;
          request.model = "bench-vqc";
          request.input = queries[c * per_client + i];
          const auto start = std::chrono::steady_clock::now();
          auto response = server.Submit(std::move(request)).get();
          const auto elapsed = std::chrono::steady_clock::now() - start;
          if (response.ok()) {
            local.push_back(static_cast<double>(
                std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                    .count()));
          }
        }
        std::lock_guard<std::mutex> lock(latencies_mu);
        healthy_latencies_us.insert(healthy_latencies_us.end(), local.begin(),
                                    local.end());
      });
    }
    for (auto& t : clients) t.join();
    poison_running.store(false, std::memory_order_relaxed);
    for (auto& t : poison_clients) t.join();
  }
  server.Shutdown();

  if (healthy_latencies_us.empty()) {
    fault::FaultInjector::Global().DisarmAll();
    state.SkipWithError("no healthy responses");
    return;
  }
  std::sort(healthy_latencies_us.begin(), healthy_latencies_us.end());
  const size_t p99_index = std::min(
      healthy_latencies_us.size() - 1,
      static_cast<size_t>(0.99 * static_cast<double>(
                                     healthy_latencies_us.size())));
  state.counters["healthy_p99_us"] = healthy_latencies_us[p99_index];
  state.counters["healthy_p50_us"] =
      healthy_latencies_us[healthy_latencies_us.size() / 2];
  if (mode == kPoisonedCoTenant) {
    if (const auto* breaker = server.breaker("bench-vqc-bad", 1)) {
      state.counters["bad_shed"] =
          static_cast<double>(breaker->stats().shed);
      state.counters["bad_breaker_open"] =
          breaker->state() == fault::BreakerState::kOpen ? 1.0 : 0.0;
    }
  }
  state.SetLabel(mode == kHealthyAlone ? "healthy_alone"
                                       : "poisoned_cotenant");
  fault::FaultInjector::Global().DisarmAll();
}

BENCHMARK(BM_BreakerIsolation)
    ->Arg(kHealthyAlone)
    ->Arg(kPoisonedCoTenant)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace serve
}  // namespace qdb

BENCHMARK_MAIN();
