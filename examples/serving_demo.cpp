// Inference serving end to end: train two quantum models, package them as
// artifacts, publish them through the model registry, and drive the
// inference server with concurrent closed-loop clients.
//
// The flow mirrors a database deployment: an offline job trains a model
// (here a VQC and a quantum-kernel SVM on the moons dataset), persists it
// as a versioned artifact, and a serving process loads the artifact and
// answers prediction requests — coalescing concurrent requests into
// micro-batches over one pre-compiled circuit and memoizing repeated
// inputs in an LRU result cache.
//
// Load shape: --clients N (default 8) concurrent closed-loop clients;
// --seconds S runs each client for a wall-clock duration instead of the
// default fixed 32 requests; --shards / --dispatchers size the sharded
// serving runtime. Multi-tenancy: clients carry alternating tenant ids,
// and --quota-rate R (tokens/s, with --quota-burst B) arms per-tenant
// token buckets — over-budget tenants see "resource exhausted" rejections
// counted separately from real failures.
//
// Storage tier: --store-budget-mb M caps the registry's resident model
// bytes (0 = unlimited); least-recently-served file-backed models are
// paged out and transparently reloaded on their next request, and the
// final report (and --statusz) shows budget, residency, evictions,
// reloads, and cold-start latency. --registry-slices K spreads models
// over K independently locked registry slices, each owning 1/K of the
// budget.
//
// Observability: run with QDB_TRACE=1 (or pass --trace-out trace.json) to
// capture a Chrome trace-event timeline with per-request span trees;
// --statusz prints the server introspection page (per-shard queues,
// per-tenant token buckets, breakers, SLO burn rates, slowest traces)
// before shutdown; --metrics-out metrics.json dumps the full registry —
// including the labeled serve.requests{model,kind,outcome},
// serve.latency_us{model,outcome}, serve.shard.depth{shard}, and
// serve.quota.rejected{tenant} families — as JSON.
//
// Chaos: set QDB_FAULTS to arm seeded fault points across the stack (see
// fault/fault_injector.h for the grammar and scripts/chaos.sh for the
// canonical profiles), e.g.
//
//   QDB_FAULTS="serve.dispatch:error:0.2:1337" ./serving_demo
//
// and watch the retry/breaker/degradation machinery absorb the injected
// failures.
//
// Crash recovery (scripts/crash_recovery.sh drives both modes):
//
//   --journal-dir D --crash-rounds N [--ack-log F] [--seed S]
//     runs a registry mutation workload (register, save, pin, remove) over
//     a journaled registry, writing a flushed TRY/ACK line per durable
//     operation to the ack log. Arm a kill fault (e.g.
//     QDB_FAULTS="store.journal.append:kill:0.05:7:0.5") and the process
//     dies mid-write with exit 137; the ack log records exactly which
//     operations were acknowledged before death.
//
//   --journal-dir D --recover [--ack-log F]
//     warm-restarts from the journal, prints one RECOVERED line per
//     surviving model, starts the server, prefetches the warm set
//     (StartWarmup) until Healthz reports ready, serves one inference per
//     recovered model, and — when an ack log is given — verifies the
//     recovery against it: every acknowledged save (not later removed) is
//     present, every acknowledged remove is absent, and nothing is served
//     that was never attempted. Exits non-zero on any violation.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "classical/svm.h"
#include "common/strings.h"
#include "common/timer.h"
#include "fault/fault_injector.h"
#include "obs/obs.h"
#include "serve/inference_server.h"
#include "serve/model_registry.h"
#include "store/async_loader.h"
#include "store/binary_format.h"
#include "variational/ansatz.h"
#include "variational/vqc.h"

namespace {

const char* ParseFlagValue(int argc, char** argv, const char* flag) {
  const size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], flag, flag_len) == 0 &&
        argv[i][flag_len] == '=') {
      return argv[i] + flag_len + 1;
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

long ParseLongFlag(int argc, char** argv, const char* flag,
                   long default_value) {
  const char* value = ParseFlagValue(argc, argv, flag);
  return value != nullptr ? std::atol(value) : default_value;
}

double ParseDoubleFlag(int argc, char** argv, const char* flag,
                       double default_value) {
  const char* value = ParseFlagValue(argc, argv, flag);
  return value != nullptr ? std::atof(value) : default_value;
}

// ---- Crash-recovery modes (scripts/crash_recovery.sh) ----------------------

// A registrable VQC artifact small enough that a crash round is dominated by
// journal/artifact I/O (the thing under test), not training.
qdb::serve::ModelArtifact TinyCrashArtifact(const std::string& name,
                                            qdb::Rng& rng) {
  qdb::serve::ModelArtifact a;
  a.type = qdb::serve::ModelType::kVqcClassifier;
  a.name = name;
  a.num_features = 2;
  a.encoding = qdb::VqcEncoding::kAngle;
  a.ansatz_layers = 1;
  a.entanglement = qdb::Entanglement::kLinear;
  a.feature_scale = 0.8;
  const int count =
      qdb::RealAmplitudesParamCount(a.num_features, a.ansatz_layers);
  for (int i = 0; i < count; ++i) {
    a.params.push_back(rng.Uniform(-1.5, 1.5));
  }
  return a;
}

// One TRY/ACK line, flushed to the kernel before returning so a SIGKILL on
// the very next instruction cannot lose it. TRY precedes the operation, ACK
// follows success; the recovery verifier reasons about the gap.
void AckLine(std::FILE* ack, const char* what, const std::string& name,
             int version) {
  if (ack == nullptr) return;
  std::fprintf(ack, "%s %s %d\n", what, name.c_str(), version);
  std::fflush(ack);
}

// Registry mutation workload under an armed kill fault. Exit 0 = workload
// completed (the fault never fired — still a valid harness sample); exit 137
// = SIGKILL mid-operation, which is the point.
int RunCrashWorkload(const std::string& journal_dir,
                     const std::string& ack_path, long rounds, long seed) {
  using namespace qdb;
  std::FILE* ack = nullptr;
  if (!ack_path.empty()) {
    ack = std::fopen(ack_path.c_str(), "a");
    if (ack == nullptr) {
      std::printf("cannot open ack log %s\n", ack_path.c_str());
      return 1;
    }
  }
  serve::RegistryOptions opts;
  opts.journal_dir = journal_dir;
  // Small compaction interval so the harness's kill points land inside the
  // snapshot -> journal-reset window, not just mid-append.
  opts.journal_compact_every = 16;
  serve::ModelRegistry registry(opts);
  if (!registry.recovery_report().journaled) {
    std::printf("journal open failed: %s\n",
                registry.recovery_report().open_status.ToString().c_str());
    return 1;
  }

  Rng rng(static_cast<uint64_t>(seed));
  const char* kNames[] = {"crash-a", "crash-b", "crash-c",
                          "crash-d", "crash-e", "crash-f"};
  // Versions this process saved and has not removed, per name.
  std::map<std::string, std::vector<int>> live;
  for (long round = 0; round < rounds; ++round) {
    const std::string name = kNames[rng.UniformInt(0, 5)];
    const double roll = rng.Uniform();
    auto& versions = live[name];
    if (roll < 0.70 || versions.empty()) {
      // Register a fresh version and promote it to file-backed (the
      // durability point). ACK SAVE only after SaveModel returns OK.
      auto servable = registry.Register(TinyCrashArtifact(name, rng));
      if (!servable.ok()) continue;
      const int version = servable.value()->version();
      const std::string path =
          qdb::StrCat(journal_dir, "/art_", name, "_v", version, ".model");
      AckLine(ack, "TRY SAVE", name, version);
      if (auto s = registry.SaveModel(name, version, path); !s.ok()) {
        continue;  // No ack: the save may or may not have become durable.
      }
      AckLine(ack, "ACK SAVE", name, version);
      versions.push_back(version);
    } else if (roll < 0.85) {
      const int version =
          versions[static_cast<size_t>(rng.UniformInt(
              static_cast<int64_t>(0), static_cast<int64_t>(versions.size()) - 1))];
      const bool pin = rng.Uniform() < 0.5;
      AckLine(ack, pin ? "TRY PIN" : "TRY UNPIN", name, version);
      if (registry.SetPinned(name, version, pin).ok()) {
        AckLine(ack, pin ? "ACK PIN" : "ACK UNPIN", name, version);
      }
    } else {
      // Remove one version, or occasionally every version of the name.
      const bool all = rng.Uniform() < 0.25;
      const int version =
          all ? -1 : versions[static_cast<size_t>(rng.UniformInt(
              static_cast<int64_t>(0), static_cast<int64_t>(versions.size()) - 1))];
      AckLine(ack, "TRY REMOVE", name, version);
      if (registry.Evict(name, version).ok()) {
        AckLine(ack, "ACK REMOVE", name, version);
        if (all) {
          versions.clear();
        } else {
          versions.erase(std::find(versions.begin(), versions.end(), version));
        }
      }
    }
  }
  const auto* journal = registry.journal();
  const auto jstats = journal->stats();
  std::printf("crash workload complete: %ld rounds, %ld journal appends, "
              "%ld compactions\n",
              rounds, jstats.appends, jstats.compactions);
  if (ack != nullptr) std::fclose(ack);
  return 0;
}

// The acknowledged-operation ledger, replayed in log order so
// save/remove/save sequences on a re-used (name, version) resolve to the
// final state.
struct AckLedger {
  std::set<std::pair<std::string, int>> must_present;  ///< ACK SAVE, live.
  std::set<std::pair<std::string, int>> must_absent;   ///< ACK REMOVE final.
  std::set<std::pair<std::string, int>> try_saved;     ///< Any TRY SAVE.
  /// TRY REMOVE without ACK: presence is legitimately ambiguous.
  std::set<std::pair<std::string, int>> uncertain;
};

AckLedger ReplayAckLog(const std::string& path) {
  AckLedger ledger;
  std::ifstream in(path);
  std::string op, what, name;
  int version = 0;
  while (in >> op >> what >> name >> version) {
    const bool is_try = op == "TRY";
    if (what == "SAVE") {
      const std::pair<std::string, int> key{name, version};
      if (is_try) {
        ledger.try_saved.insert(key);
      } else {
        ledger.must_present.insert(key);
        ledger.must_absent.erase(key);
        ledger.uncertain.erase(key);
      }
    } else if (what == "REMOVE") {
      // version < 0 removes every version of the name.
      auto matches = [&](const std::pair<std::string, int>& key) {
        return key.first == name && (version < 0 || key.second == version);
      };
      std::vector<std::pair<std::string, int>> hit;
      for (const auto& key : ledger.must_present) {
        if (matches(key)) hit.push_back(key);
      }
      for (const auto& key : hit) {
        ledger.must_present.erase(key);
        if (is_try) {
          ledger.uncertain.insert(key);
        } else {
          ledger.must_absent.insert(key);
        }
      }
      if (!is_try) {
        // An acked remove settles any earlier try-remove ambiguity too:
        // the key is now definitely gone.
        for (auto it = ledger.uncertain.begin();
             it != ledger.uncertain.end();) {
          if (matches(*it)) {
            ledger.must_absent.insert(*it);
            it = ledger.uncertain.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    // PIN/UNPIN lines do not affect presence.
  }
  return ledger;
}

// Warm restart + verification. Non-zero exit on any lost acknowledged save,
// any resurrected removed model, any phantom, or a server that never
// reaches ready.
int RunRecovery(const std::string& journal_dir, const std::string& ack_path) {
  using namespace qdb;
  serve::RegistryOptions opts;
  opts.journal_dir = journal_dir;
  opts.journal_compact_every = 16;
  auto opened = serve::ModelRegistry::OpenJournaled(opts);
  if (!opened.ok()) {
    std::printf("recovery failed: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  serve::ModelRegistry& registry = *opened.value();
  const serve::RecoveryReport& report = registry.recovery_report();
  std::printf("recovery: %ld models in %ld us (replayed %ld records, %ld "
              "stale, snapshot seq %llu%s, dropped %ld non-durable)\n",
              report.recovered_models, report.recovery_us,
              report.replayed_records, report.stale_records,
              static_cast<unsigned long long>(report.snapshot_sequence),
              report.tail_truncated ? ", tail truncated" : "",
              report.dropped_nondurable);
  std::set<std::pair<std::string, int>> recovered;
  for (const auto& entry : registry.List()) {
    recovered.insert({entry.name, entry.version});
    std::printf("RECOVERED %s %d\n", entry.name.c_str(), entry.version);
  }

  int violations = 0;
  if (!ack_path.empty()) {
    const AckLedger ledger = ReplayAckLog(ack_path);
    for (const auto& [name, version] : ledger.must_present) {
      if (recovered.count({name, version}) == 0) {
        std::printf("VIOLATION lost acknowledged save: %s v%d\n",
                    name.c_str(), version);
        ++violations;
      }
    }
    for (const auto& [name, version] : ledger.must_absent) {
      if (recovered.count({name, version}) != 0) {
        std::printf("VIOLATION resurrected removed model: %s v%d\n",
                    name.c_str(), version);
        ++violations;
      }
    }
    for (const auto& [name, version] : recovered) {
      if (ledger.try_saved.count({name, version}) == 0) {
        std::printf("VIOLATION phantom model: %s v%d was never saved\n",
                    name.c_str(), version);
        ++violations;
      }
    }
  }

  // Warm restart: prefetch the recovered warm set off the request path and
  // hold admission until the server reports ready.
  serve::ServerOptions server_opts;
  server_opts.max_batch_size = 8;
  server_opts.max_wait_us = 200;
  serve::InferenceServer server(registry, server_opts);
  if (auto s = server.Start(); !s.ok()) {
    std::printf("server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  store::AsyncModelLoader loader(registry);
  if (auto s = loader.Start(); !s.ok()) {
    std::printf("loader start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (auto s = server.StartWarmup(loader); !s.ok()) {
    std::printf("warmup start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  Timer warm_wall;
  Status health = server.Healthz();
  while (!health.ok() && warm_wall.Seconds() < 30.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    health = server.Healthz();
  }
  if (!health.ok()) {
    std::printf("VIOLATION server never became ready: %s\n",
                health.ToString().c_str());
    ++violations;
  } else {
    // Every recovered model must actually serve — a manifest entry whose
    // artifact cannot be loaded is as lost as a missing one.
    for (const auto& [name, version] : recovered) {
      serve::InferenceRequest request;
      request.model = name;
      request.version = version;
      request.input = {0.4, 0.9};
      request.timeout_us = 5'000'000;
      auto response = server.Submit(std::move(request)).get();
      if (!response.ok()) {
        std::printf("VIOLATION recovered model %s v%d does not serve: %s\n",
                    name.c_str(), version,
                    response.status().ToString().c_str());
        ++violations;
      }
    }
  }
  const auto warm = server.warmup_status();
  loader.Shutdown();
  server.Shutdown();
  if (violations > 0) {
    std::printf("FAILED: %d violations\n", violations);
    return 1;
  }
  std::printf("READY models=%zu warm_ready=%zu warm_failed=%zu\n",
              recovered.size(), warm.ready, warm.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qdb;

  obs::InitTracingFromEnv();
  const char* trace_out = ParseFlagValue(argc, argv, "--trace-out");
  const char* metrics_out = ParseFlagValue(argc, argv, "--metrics-out");
  const bool show_statusz = HasFlag(argc, argv, "--statusz");
  if (trace_out != nullptr) obs::EnableTracing();

  // Chaos opt-in: arm any fault points listed in QDB_FAULTS (no-op unset).
  if (auto s = fault::FaultInjector::Global().ArmFromEnv(); !s.ok()) {
    std::printf("bad QDB_FAULTS: %s\n", s.ToString().c_str());
    return 1;
  }
  for (const auto& point : fault::FaultInjector::Global().ArmedPoints()) {
    std::printf("chaos: fault point '%s' armed\n", point.c_str());
  }

  // ---- Crash-recovery harness modes (see scripts/crash_recovery.sh) -------
  const long crash_rounds = ParseLongFlag(argc, argv, "--crash-rounds", 0);
  const bool recover_mode = HasFlag(argc, argv, "--recover");
  if (crash_rounds > 0 || recover_mode) {
    const char* journal_dir = ParseFlagValue(argc, argv, "--journal-dir");
    if (journal_dir == nullptr) {
      std::printf("--crash-rounds/--recover require --journal-dir\n");
      return 1;
    }
    const char* ack_log = ParseFlagValue(argc, argv, "--ack-log");
    const std::string ack_path = ack_log != nullptr ? ack_log : "";
    if (recover_mode) return RunRecovery(journal_dir, ack_path);
    return RunCrashWorkload(journal_dir, ack_path, crash_rounds,
                            ParseLongFlag(argc, argv, "--seed", 1));
  }

  // ---- Offline: train and package ------------------------------------------
  Rng rng(17);
  Dataset all = MakeMoons(48, 0.12, rng);
  auto [train, test] = TrainTestSplit(all, 0.25, rng);
  MinMaxScale(train, test, 0.0, M_PI);
  MinMaxScale(train, train, 0.0, M_PI);

  VqcOptions vqc_opts;
  vqc_opts.adam.max_iterations = 80;
  auto vqc = VqcClassifier::Train(train, vqc_opts);
  if (!vqc.ok()) {
    std::printf("VQC training failed: %s\n", vqc.status().ToString().c_str());
    return 1;
  }

  FidelityQuantumKernel kernel = MakeAngleKernel();
  auto gram = kernel.GramMatrix(train.features);
  if (!gram.ok()) return 1;
  SvmOptions svm_opts;
  svm_opts.kernel = SvmKernel::kPrecomputed;
  auto svm = Svm::Train(train, svm_opts, &gram.value());
  if (!svm.ok()) {
    std::printf("SVM training failed: %s\n", svm.status().ToString().c_str());
    return 1;
  }

  // Persist the VQC artifact and load it back — the registry round-trips
  // models through the same on-disk format a warehouse deployment would use.
  // --store-budget-mb arms the storage tier's byte budget; file-backed
  // models beyond it are paged out and reload on demand.
  serve::RegistryOptions registry_opts;
  registry_opts.store_budget_bytes = static_cast<size_t>(std::max(
      0l, ParseLongFlag(argc, argv, "--store-budget-mb", 0))) * (1u << 20);
  registry_opts.num_slices = static_cast<int>(
      std::max(1l, ParseLongFlag(argc, argv, "--registry-slices", 1)));
  serve::ModelRegistry registry(registry_opts);
  serve::ModelArtifact vqc_artifact =
      serve::MakeVqcArtifact(vqc.value(), "moons-vqc");
  const std::string artifact_path = "/tmp/qdb_moons_vqc.model";
  if (auto s = store::SaveArtifact(vqc_artifact, artifact_path); !s.ok()) {
    std::printf("save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto loaded = registry.LoadModel(artifact_path);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  auto svm_servable = registry.Register(serve::MakeKernelSvmArtifact(
      svm.value(), train, serve::KernelEncodingKind::kAngle,
      /*kernel_scale=*/1.0, /*kernel_reps=*/2, "moons-qsvm"));
  if (!svm_servable.ok()) {
    std::printf("register failed: %s\n",
                svm_servable.status().ToString().c_str());
    return 1;
  }
  std::printf("registry: %zu models\n", registry.size());
  for (const auto& entry : registry.List()) {
    std::printf("  %-12s v%d  %s\n", entry.name.c_str(), entry.version,
                serve::ModelTypeName(entry.type));
  }

  // ---- Online: serve under concurrent load ---------------------------------
  const int num_clients = static_cast<int>(
      std::max(1l, ParseLongFlag(argc, argv, "--clients", 8)));
  const double run_seconds =
      ParseDoubleFlag(argc, argv, "--seconds", 0.0);  // 0 = fixed count.
  const int requests_per_client = static_cast<int>(
      std::max(1l, ParseLongFlag(argc, argv, "--requests-per-client", 32)));
  const double quota_rate =
      ParseDoubleFlag(argc, argv, "--quota-rate", 0.0);  // 0 = quotas off.

  serve::ServerOptions opts;
  opts.max_batch_size = 16;
  opts.max_wait_us = 500;
  opts.num_shards = static_cast<int>(
      std::max(1l, ParseLongFlag(argc, argv, "--shards", 1)));
  opts.num_dispatchers = static_cast<int>(std::max(
      1l, ParseLongFlag(argc, argv, "--dispatchers", opts.num_shards)));
  if (quota_rate > 0.0) {
    opts.enable_quotas = true;
    opts.quota.default_spec.rate_per_s = quota_rate;
    opts.quota.default_spec.burst =
        ParseDoubleFlag(argc, argv, "--quota-burst", 16.0);
  }
  serve::InferenceServer server(registry, opts);
  if (auto s = server.Start(); !s.ok()) {
    std::printf("server start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::atomic<int> submitted{0}, correct{0}, failed{0}, quota_rejected{0};
  Timer wall;
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng client_rng(100 + c);
      // Fixed-count mode runs each client for requests_per_client
      // requests; --seconds runs a wall-clock duration instead.
      Timer client_wall;
      for (int i = 0;
           run_seconds > 0.0 ? client_wall.Seconds() < run_seconds
                             : i < requests_per_client;
           ++i) {
        // Closed loop: each client picks a test point (some repeats, so the
        // result cache sees realistic reuse) and alternates models. Clients
        // split across two tenants so --quota-rate shows per-tenant
        // shedding in Statusz and the quota.* metric families.
        const size_t idx = client_rng.UniformInt(0, test.size() - 1);
        serve::InferenceRequest request;
        request.model = (i % 2 == 0) ? "moons-vqc" : "moons-qsvm";
        request.tenant = (c % 2 == 0) ? "tenant-even" : "tenant-odd";
        request.input = test.features[idx];
        request.timeout_us = 2'000'000;
        submitted.fetch_add(1);
        auto response = server.Submit(std::move(request)).get();
        if (!response.ok()) {
          if (response.status().code() == StatusCode::kResourceExhausted) {
            quota_rejected.fetch_add(1);
          } else {
            failed.fetch_add(1);
          }
          continue;
        }
        if (response.value().result.label == test.labels[idx]) {
          correct.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double elapsed_s = wall.Seconds();
  // Introspection snapshot before shutdown so queue/breaker/SLO state shows
  // the live server, not the drained one.
  if (show_statusz) {
    std::printf("\n%s", server.Statusz().c_str());
    const auto health = server.Healthz();
    std::printf("healthz: %s\n", health.ToString().c_str());
  }
  server.Shutdown();

  const auto stats = server.stats();
  const auto cache = server.result_cache().stats();
  const int total = submitted.load();
  std::printf("\nserved %d requests from %d clients in %.3fs  (%.0f req/s)\n",
              total, num_clients, elapsed_s, total / elapsed_s);
  std::printf("  shards          %d  (dispatchers %d)\n", opts.num_shards,
              opts.num_dispatchers);
  const int answered = total - failed.load() - quota_rejected.load();
  std::printf("  accuracy        %.3f\n",
              answered > 0 ? static_cast<double>(correct.load()) / answered
                           : 0.0);
  std::printf("  batches         %llu  (avg batch %.2f)\n",
              static_cast<unsigned long long>(stats.batches),
              stats.batches ? static_cast<double>(stats.completed) /
                                  static_cast<double>(stats.batches)
                            : 0.0);
  std::printf("  cache           %llu hits / %llu misses  (%zu entries)\n",
              static_cast<unsigned long long>(cache.hits),
              static_cast<unsigned long long>(cache.misses), cache.size);
  std::printf("  rejected        %llu,  expired %llu,  failed %d\n",
              static_cast<unsigned long long>(stats.rejected),
              static_cast<unsigned long long>(stats.expired), failed.load());
  if (opts.enable_quotas) {
    std::printf("  quota rejected  %llu  (tenant buckets at %.1f/s, burst"
                " %.1f)\n",
                static_cast<unsigned long long>(stats.quota_rejected),
                opts.quota.default_spec.rate_per_s,
                opts.quota.default_spec.burst);
  }

  // Latency profile straight from the serve.* metrics the server exports.
  // A non-empty overflow bucket means the top quantiles are clamped to the
  // histogram's last bound; flag them so they are not read as estimates.
  if (auto* wait = obs::GetHistogram("serve.queue_wait_us")) {
    std::printf("  queue wait µs   p50 %.0f   p90 %.0f   p99 %.0f%s\n",
                wait->ApproxQuantile(0.50), wait->ApproxQuantile(0.90),
                wait->ApproxQuantile(0.99),
                wait->OverflowCount() > 0 ? "  [clamped]" : "");
    if (wait->OverflowCount() > 0) {
      std::printf("                  (%ld samples above last bound %.0f)\n",
                  wait->OverflowCount(), wait->bounds().back());
    }
  }
  if (auto* batch = obs::GetHistogram("serve.batch_size")) {
    std::printf("  batch size      p50 %.1f   p90 %.1f%s\n",
                batch->ApproxQuantile(0.50), batch->ApproxQuantile(0.90),
                batch->OverflowCount() > 0 ? "  [clamped]" : "");
  }

  // Storage-tier residency: what the byte budget did to the model fleet.
  const serve::StoreStatus store = registry.store_status();
  if (store.budget_bytes > 0) {
    std::printf("  store budget    %.1f MiB  (resident %.1f MiB, %zu/%zu "
                "models, %lld evictions, %lld reloads)\n",
                static_cast<double>(store.budget_bytes) / (1u << 20),
                static_cast<double>(store.resident_bytes) / (1u << 20),
                store.resident_models, store.registered_models,
                static_cast<long long>(store.evictions),
                static_cast<long long>(store.reloads));
    if (auto* cold = obs::GetHistogram("store.cold_start_us");
        cold != nullptr && cold->TotalCount() > 0) {
      std::printf("  cold start µs   p50 %.0f   p99 %.0f%s\n",
                  cold->ApproxQuantile(0.50), cold->ApproxQuantile(0.99),
                  cold->OverflowCount() > 0 ? "  [clamped]" : "");
    }
  }

  if (trace_out != nullptr) {
    if (auto s = obs::TraceLog::Global().WriteChromeTrace(trace_out); s.ok()) {
      std::printf("\ntrace written to %s\n", trace_out);
    }
  }
  if (metrics_out != nullptr) {
    if (auto s = obs::WriteMetricsJson(metrics_out); s.ok()) {
      std::printf("metrics written to %s\n", metrics_out);
    } else {
      std::printf("metrics write failed: %s\n", s.ToString().c_str());
    }
  }
  return failed.load() == 0 ? 0 : 1;
}
