// E21 — Model storage tier: artifact load latency, and budgeted serving
// under memory pressure.
// E22 — Warm restart: crash-recovery cost as a function of fleet size.
// BM_WarmRestart journals a fleet of K file-backed models (K = 8/64/256),
// then measures restart-to-first-inference: open the journaled registry
// (snapshot + journal replay, entries rebuilt as page-outs), cold-start one
// model, and run one prediction through it. The recovery_us counter
// isolates the replay+rebuild share of that wall time.
//
// Two questions. (1) What does a load cost on the cold-start path?
// BM_ArtifactLoad reads a 12-qubit kernel-SVM artifact with 128 support
// vectors (~1.5k doubles): one file read, two checksum passes and memcpys
// into place. (2) What happens when the registry's byte budget shrinks
// below the working set? BM_BudgetedServing holds 1000 file-backed model
// versions (40 names x 25 versions) and sweeps the budget from 100% of the
// working set down to 5%, driving lookups across all names. Every request
// must succeed at every budget point (failed_requests == 0 is asserted) —
// the tier pages models out and reloads them on demand — while the
// counters show the cost curve: evictions and reloads climb as the budget
// drops, resident_bytes stays bounded by the budget, and cold_start p99
// (from the store.cold_start_us histogram) prices the misses.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "obs/obs.h"
#include "serve/model_artifact.h"
#include "serve/model_registry.h"
#include "serve/servable.h"
#include "store/binary_format.h"
#include "variational/ansatz.h"

namespace qdb {
namespace store {
namespace {

constexpr int kQubits = 12;
constexpr int kSupportVectors = 128;

serve::ModelArtifact LoadLatencyArtifact() {
  Rng rng(41);
  serve::ModelArtifact a;
  a.type = serve::ModelType::kKernelSvm;
  a.name = "bench-store-qsvm";
  a.version = 1;
  a.num_features = kQubits;
  a.kernel_encoding = serve::KernelEncodingKind::kAngle;
  a.kernel_scale = 1.0;
  a.bias = 0.05;
  for (int i = 0; i < kSupportVectors; ++i) {
    serve::SupportVector sv;
    sv.coeff = (i % 2 == 0 ? 1.0 : -1.0) / kSupportVectors;
    sv.features.resize(kQubits);
    for (auto& f : sv.features) f = rng.Uniform(0.0, M_PI);
    a.support_vectors.push_back(std::move(sv));
  }
  return a;
}

// Small variational artifacts for the fleet: the point of the budget sweep
// is entry count and churn, not per-model size.
serve::ModelArtifact FleetArtifact(const std::string& name, int version) {
  serve::ModelArtifact a;
  a.type = serve::ModelType::kVqcClassifier;
  a.name = name;
  a.version = version;
  a.num_features = 4;
  a.encoding = VqcEncoding::kAngle;
  a.ansatz_layers = 1;
  a.entanglement = Entanglement::kLinear;
  a.feature_scale = 0.9;
  a.params.assign(
      static_cast<size_t>(RealAmplitudesParamCount(4, 1)),
      0.1 * version + 0.01);
  return a;
}

void BM_ArtifactLoad(benchmark::State& state) {
  const serve::ModelArtifact artifact = LoadLatencyArtifact();
  const std::string path = "/tmp/qdb_bench_store_load_bin.model";
  if (!SaveArtifact(artifact, path).ok()) {
    state.SkipWithError("failed to write artifact");
    return;
  }
  for (auto _ : state) {
    auto loaded = LoadArtifact(path);
    if (!loaded.ok()) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(loaded.value().support_vectors.data());
  }
  state.counters["doubles_in_artifact"] = static_cast<double>(
      kSupportVectors * (kQubits + 1));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    state.counters["file_bytes"] = static_cast<double>(std::ftell(f));
    std::fclose(f);
  }
}
BENCHMARK(BM_ArtifactLoad)->Unit(benchmark::kMicrosecond);

// Budget sweep: Arg is the budget as a percentage of the fleet's working
// set (100 = everything fits, 5 = almost nothing does).
void BM_BudgetedServing(benchmark::State& state) {
  constexpr int kNames = 40;
  constexpr int kVersionsPerName = 25;  // 1000 versions total
  const int budget_percent = static_cast<int>(state.range(0));

  // Write the fleet once per process; reuse across budget points.
  static const std::vector<std::string>* const kPaths = [] {
    auto* paths = new std::vector<std::string>();
    for (int n = 0; n < kNames; ++n) {
      for (int v = 1; v <= kVersionsPerName; ++v) {
        const std::string path =
            StrCat("/tmp/qdb_bench_store_fleet_", n, "_", v, ".model");
        const Status saved =
            SaveArtifact(FleetArtifact(StrCat("fleet-", n), v), path);
        if (!saved.ok()) continue;
        paths->push_back(path);
      }
    }
    return paths;
  }();
  static const size_t kWorkingSetBytes = [] {
    auto servable =
        serve::ServableModel::Create(FleetArtifact("sizer", 1));
    return servable.ok() ? servable.value()->ResidentBytes() *
                               static_cast<size_t>(kNames * kVersionsPerName)
                         : 0;
  }();
  if (kPaths->size() != static_cast<size_t>(kNames * kVersionsPerName) ||
      kWorkingSetBytes == 0) {
    state.SkipWithError("fleet setup failed");
    return;
  }

  int64_t requests = 0;
  int64_t failed = 0;
  serve::StoreStatus status;
  double cold_p99_us = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    serve::RegistryOptions options;
    options.num_slices = 4;
    options.store_budget_bytes =
        kWorkingSetBytes * static_cast<size_t>(budget_percent) / 100;
    serve::ModelRegistry registry(options);
    for (const std::string& path : *kPaths) {
      if (!registry.LoadModel(path).ok()) {
        state.SkipWithError("fleet load failed");
        return;
      }
    }
    Rng rng(17);
    state.ResumeTiming();
    // Serve: mostly-latest traffic with a tail of pinned-version reads, the
    // access pattern version rollouts produce.
    for (int i = 0; i < 4000; ++i) {
      const int name_index = static_cast<int>(rng.Uniform(0.0, kNames));
      const std::string name = StrCat("fleet-", name_index % kNames);
      Result<std::shared_ptr<const serve::ServableModel>> servable =
          rng.Uniform(0.0, 1.0) < 0.9
              ? registry.Lookup(name)
              : registry.Lookup(
                    name, 1 + static_cast<int>(rng.Uniform(
                                  0.0, kVersionsPerName)) %
                                  kVersionsPerName);
      ++requests;
      if (!servable.ok()) ++failed;
    }
    state.PauseTiming();
    status = registry.store_status();
    obs::Histogram* cold = obs::GetHistogram("store.cold_start_us");
    if (cold->TotalCount() > 0) cold_p99_us = cold->ApproxQuantile(0.99);
    state.ResumeTiming();
  }
  if (failed != 0) {
    state.SkipWithError("budgeted serving dropped requests");
    return;
  }
  state.SetItemsProcessed(requests);
  state.counters["budget_percent"] = static_cast<double>(budget_percent);
  state.counters["budget_bytes"] = static_cast<double>(
      kWorkingSetBytes * static_cast<size_t>(budget_percent) / 100);
  state.counters["resident_bytes"] =
      static_cast<double>(status.resident_bytes);
  state.counters["resident_models"] =
      static_cast<double>(status.resident_models);
  state.counters["registered_models"] =
      static_cast<double>(status.registered_models);
  state.counters["evictions"] = static_cast<double>(status.evictions);
  state.counters["reloads"] = static_cast<double>(status.reloads);
  state.counters["failed_requests"] = static_cast<double>(failed);
  state.counters["cold_start_p99_us"] = cold_p99_us;
  state.counters["req_per_s"] = benchmark::Counter(
      static_cast<double>(requests), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BudgetedServing)
    ->Arg(100)
    ->Arg(50)
    ->Arg(25)
    ->Arg(10)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond);

// E22 — restart-to-first-inference. Arg = journaled fleet size.
void BM_WarmRestart(benchmark::State& state) {
  const int num_models = static_cast<int>(state.range(0));
  const std::string dir = StrCat("/tmp/qdb_bench_store_restart_", num_models);
  (void)std::system(StrCat("rm -rf '", dir, "'").c_str());

  serve::RegistryOptions options;
  options.journal_dir = dir;
  {
    // The "previous process": journal a fleet of durable (saved) models,
    // every fourth one pinned, then die (scope exit — the journal needs no
    // clean shutdown, that is the point).
    serve::ModelRegistry registry(options);
    for (int i = 0; i < num_models; ++i) {
      const std::string name = StrCat("restart-", i);
      if (!registry.Register(FleetArtifact(name, 1)).ok() ||
          !registry.SaveModel(name, 1,
                              StrCat(dir, "/m", i, ".model")).ok()) {
        state.SkipWithError("fleet journaling failed");
        return;
      }
      if (i % 4 == 0 && !registry.SetPinned(name, 1, true).ok()) {
        state.SkipWithError("fleet pinning failed");
        return;
      }
    }
  }

  const DVector probe = {0.3, 0.8, 1.2, 0.5};
  long recovery_us = 0;
  long recovered = 0;
  for (auto _ : state) {
    auto opened = serve::ModelRegistry::OpenJournaled(options);
    if (!opened.ok()) {
      state.SkipWithError("journaled open failed");
      return;
    }
    auto servable = opened.value()->Lookup("restart-0", 1);
    if (!servable.ok()) {
      state.SkipWithError("recovered model did not cold-start");
      return;
    }
    auto value = servable.value()->RunBatch(serve::RequestKind::kPredict,
                                            {probe});
    if (!value.ok()) {
      state.SkipWithError("recovered model did not serve");
      return;
    }
    benchmark::DoNotOptimize(value.value().data());
    recovery_us = opened.value()->recovery_report().recovery_us;
    recovered = opened.value()->recovery_report().recovered_models;
  }
  if (recovered != num_models) {
    state.SkipWithError("recovery lost models");
    return;
  }
  state.counters["fleet_models"] = static_cast<double>(num_models);
  state.counters["recovered_models"] = static_cast<double>(recovered);
  state.counters["recovery_us"] = static_cast<double>(recovery_us);
}
BENCHMARK(BM_WarmRestart)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace store
}  // namespace qdb

BENCHMARK_MAIN();
