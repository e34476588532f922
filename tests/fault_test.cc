// Tests for the qdb resilience stack: deterministic fault injection (spec
// parsing, seeded draw reproducibility, scope filters), the Retry/Backoff
// combinator (jitter determinism, deadline cuts), the circuit-breaker state
// machine, crash-safe artifact saves under torn writes, serving-stack
// degradation (stale cache, interpreted fallback), and a seeded chaos
// "error storm" proving every request terminates and the run replays
// bit-for-bit.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "common/rng.h"
#include "common/strings.h"
#include "fault/circuit_breaker.h"
#include "fault/fault_injector.h"
#include "obs/obs.h"
#include "serve/inference_server.h"
#include "serve/model_artifact.h"
#include "serve/model_registry.h"
#include "serve/servable.h"
#include "store/binary_format.h"
#include "variational/ansatz.h"

namespace qdb {
namespace fault {
namespace {

using serve::InferenceRequest;
using serve::InferenceResponse;
using serve::InferenceServer;
using serve::ModelArtifact;
using serve::ModelRegistry;
using serve::ModelType;
using serve::ServerOptions;

// A hand-built angle-encoded classifier artifact (no training needed).
ModelArtifact TinyVqcArtifact(const std::string& name) {
  ModelArtifact a;
  a.type = ModelType::kVqcClassifier;
  a.name = name;
  a.num_features = 2;
  a.encoding = VqcEncoding::kAngle;
  a.ansatz_layers = 1;
  a.entanglement = Entanglement::kLinear;
  a.feature_scale = 0.8;
  const int count = RealAmplitudesParamCount(a.num_features, a.ansatz_layers);
  for (int i = 0; i < count; ++i) {
    a.params.push_back(0.3 + 0.17 * static_cast<double>(i));
  }
  return a;
}

std::string TempPath(const std::string& file) {
  return testing::TempDir() + "/" + file;
}

InferenceRequest Request(const std::string& model, DVector input,
                         long timeout_us = 0) {
  InferenceRequest r;
  r.model = model;
  r.input = std::move(input);
  r.timeout_us = timeout_us;
  return r;
}

/// The injector is a process singleton: every test starts and ends clean.
class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

// ---- Fault injector ---------------------------------------------------------

TEST_F(FaultTest, DisarmedPointsAreFreeAndFireNothing) {
  EXPECT_FALSE(FaultInjector::Global().enabled());
  EXPECT_TRUE(MaybeInject("nowhere").ok());
  EXPECT_FALSE(FaultInjector::Global().Sample("nowhere").has_value());
  EXPECT_EQ(FaultInjector::Global().stats("nowhere").evaluations, 0);
}

TEST_F(FaultTest, SpecStringArmsPoints) {
  ASSERT_TRUE(FaultInjector::Global()
                  .ArmFromSpecString(
                      "serve.dispatch:error:0.2:1337,"
                      "artifact.save:torn_write:1:7:0.4:mymodel,"
                      "sim.run:latency:0.5:42:2500")
                  .ok());
  EXPECT_TRUE(FaultInjector::Global().enabled());
  const std::vector<std::string> points =
      FaultInjector::Global().ArmedPoints();
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0], "artifact.save");
  EXPECT_EQ(points[1], "serve.dispatch");
  EXPECT_EQ(points[2], "sim.run");
}

TEST_F(FaultTest, MalformedSpecsAreRejected) {
  FaultInjector& injector = FaultInjector::Global();
  EXPECT_FALSE(injector.ArmFromSpecString("p:badkind:1:0").ok());
  EXPECT_FALSE(injector.ArmFromSpecString("p:error:1.5:0").ok());
  EXPECT_FALSE(injector.ArmFromSpecString("p:error").ok());
  EXPECT_FALSE(injector.ArmFromSpecString(":error:1:0").ok());
  EXPECT_FALSE(injector.ArmFromSpecString("p:error:1:0:99").ok());
  EXPECT_FALSE(injector.ArmFromSpecString("p:error:1:0:0").ok());
  EXPECT_FALSE(injector.ArmFromSpecString("p:latency:1:0:-5").ok());
  EXPECT_FALSE(injector.ArmFromSpecString("p:torn_write:1:0:1.5").ok());
  EXPECT_FALSE(injector.ArmFromSpecString("p:error:notaprob:0").ok());
  EXPECT_FALSE(injector.ArmFromSpecString("p:kill:1:0:1.5").ok());
  EXPECT_FALSE(injector.enabled()) << "bad specs must not arm anything";
}

TEST_F(FaultTest, KillKindParsesAndNeverFiresAtZeroProbability) {
  // Parsing and arming a kill fault must be safe in-process as long as it
  // cannot fire; probability 0 lets the grammar be covered without dying.
  ASSERT_TRUE(FaultInjector::Global()
                  .ArmFromSpecString("store.journal.append:kill:0:5:0.25")
                  .ok());
  const auto armed = FaultInjector::Global().SnapshotArmed();
  ASSERT_EQ(armed.size(), 1u);
  EXPECT_EQ(armed[0].spec.kind, FaultKind::kKill);
  EXPECT_EQ(armed[0].spec.keep_fraction, 0.25);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(FaultInjector::Global()
                     .Sample("store.journal.append", "any")
                     .has_value());
  }
  EXPECT_STREQ(FaultKindName(FaultKind::kKill), "kill");
  auto parsed = ParseFaultKind("kill");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), FaultKind::kKill);
}

TEST_F(FaultTest, ArmFromEnvWarnsOnUnknownPointButStillArms) {
  obs::Counter* unknown = obs::GetCounter("fault.unknown_point");
  const long before = unknown->Value();
  // One real point, one typo: the typo is armed anyway (maybe the binary is
  // older than the spec) but warned about and counted.
  ASSERT_EQ(setenv("QDB_FAULTS",
                   "serve.dispatch:error:0.1:1,store.jurnal.append:error:0.1:2",
                   1),
            0);
  EXPECT_TRUE(FaultInjector::Global().ArmFromEnv().ok());
  ASSERT_EQ(unsetenv("QDB_FAULTS"), 0);
  EXPECT_EQ(unknown->Value(), before + 1);
  const auto points = FaultInjector::Global().ArmedPoints();
  ASSERT_EQ(points.size(), 2u);
  EXPECT_TRUE(IsKnownFaultPoint("serve.dispatch"));
  EXPECT_TRUE(IsKnownFaultPoint("store.journal.append"));
  EXPECT_FALSE(IsKnownFaultPoint("store.jurnal.append"));
}

TEST_F(FaultTest, SnapshotArmedTracksPerPointTallies) {
  ASSERT_TRUE(
      FaultInjector::Global()
          .ArmFromSpecString("alpha.point:error:1:3,beta.point:error:0:4:9:tgt")
          .ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(MaybeInject("alpha.point").ok());
  }
  EXPECT_TRUE(MaybeInject("beta.point", "other").ok());  // Scope mismatch.
  const auto armed = FaultInjector::Global().SnapshotArmed();
  ASSERT_EQ(armed.size(), 2u);
  EXPECT_EQ(armed[0].point, "alpha.point");
  EXPECT_EQ(armed[0].evaluations, 3);
  EXPECT_EQ(armed[0].fired, 3);
  EXPECT_EQ(armed[1].point, "beta.point");
  EXPECT_EQ(armed[1].spec.target, "tgt");
  EXPECT_EQ(armed[1].evaluations, 0);  // Mismatched scope consumed no draw.
}

TEST_F(FaultTest, StatuszRendersArmedFaultBlock) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register(TinyVqcArtifact("statusz-m")).ok());
  InferenceServer server(registry);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(server.Statusz().find("faults: 0 armed"), std::string::npos);

  ASSERT_TRUE(FaultInjector::Global()
                  .ArmFromSpecString("serve.dispatch:error:0.25:1337")
                  .ok());
  (void)server.Submit(Request("statusz-m", {0.4, 0.9}, 500'000)).get();
  const std::string statusz = server.Statusz();
  EXPECT_NE(statusz.find("faults: 1 armed"), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("serve.dispatch: kind=error p=0.25"),
            std::string::npos)
      << statusz;
  EXPECT_NE(statusz.find("evaluations="), std::string::npos);
  server.Shutdown();
}

TEST_F(FaultTest, SeededDrawsAreBitReproducible) {
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.probability = 0.3;
  spec.seed = 20250805;
  constexpr int kDraws = 200;

  auto record = [&] {
    FaultInjector::Global().Arm("p", spec);  // (Re-)arm resets the stream.
    std::vector<bool> fired;
    for (int i = 0; i < kDraws; ++i) {
      fired.push_back(FaultInjector::Global().Sample("p").has_value());
    }
    return fired;
  };
  const std::vector<bool> first = record();
  const std::vector<bool> second = record();
  EXPECT_EQ(first, second);
  // Sanity: an 0.3 Bernoulli stream is neither all-false nor all-true.
  int count = 0;
  for (bool f : first) count += f ? 1 : 0;
  EXPECT_GT(count, 0);
  EXPECT_LT(count, kDraws);

  spec.seed = 999;
  FaultInjector::Global().Arm("p", spec);
  std::vector<bool> reseeded;
  for (int i = 0; i < kDraws; ++i) {
    reseeded.push_back(FaultInjector::Global().Sample("p").has_value());
  }
  EXPECT_NE(first, reseeded) << "a different seed must change the stream";
}

TEST_F(FaultTest, ScopeFilterMatchesExactlyAndConsumesNoDraw) {
  FaultSpec spec;
  spec.probability = 0.5;
  spec.seed = 77;
  spec.target = "model-a";
  FaultInjector::Global().Arm("p", spec);

  // Record the stream as seen by the matching scope alone.
  std::vector<bool> alone;
  for (int i = 0; i < 50; ++i) {
    alone.push_back(FaultInjector::Global().Sample("p", "model-a").has_value());
  }
  // Re-arm and interleave mismatching scopes: they never fire and must not
  // consume draws, so the matching sequence is unchanged.
  FaultInjector::Global().Arm("p", spec);
  std::vector<bool> interleaved;
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(FaultInjector::Global().Sample("p", "model-b").has_value());
    EXPECT_FALSE(FaultInjector::Global().Sample("p").has_value());
    interleaved.push_back(
        FaultInjector::Global().Sample("p", "model-a").has_value());
  }
  EXPECT_EQ(alone, interleaved);
  const FaultInjector::PointStats stats = FaultInjector::Global().stats("p");
  EXPECT_EQ(stats.evaluations, 50) << "mismatches are not evaluations";
}

TEST_F(FaultTest, InjectReturnsConfiguredErrorCode) {
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.error_code = StatusCode::kInternal;
  FaultInjector::Global().Arm("p", spec);
  Status status = FaultInjector::Global().Inject("p");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST_F(FaultTest, LatencyFaultSleepsThenSucceeds) {
  FaultSpec spec;
  spec.kind = FaultKind::kLatency;
  spec.latency_us = 2000;
  FaultInjector::Global().Arm("p", spec);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(FaultInjector::Global().Inject("p").ok());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
                .count(),
            2000);
}

// ---- Retry / Backoff --------------------------------------------------------

TEST_F(FaultTest, RetrySucceedsAfterTransientFailures) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  std::vector<long> sleeps;
  policy.sleep_us = [&sleeps](long us) { sleeps.push_back(us); };
  int calls = 0;
  Status status = Retry(policy, [&calls](int attempt) {
    EXPECT_EQ(attempt, calls + 1);
    ++calls;
    return calls < 3 ? Status::Unavailable("transient") : Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  ASSERT_EQ(sleeps.size(), 2u);
  for (long us : sleeps) {
    EXPECT_GE(us, policy.initial_backoff_us);
    EXPECT_LE(us, policy.max_backoff_us);
  }
}

TEST_F(FaultTest, RetryStopsOnNonRetryableStatus) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  policy.sleep_us = [](long) {};
  int calls = 0;
  Status status = Retry(policy, [&calls](int) {
    ++calls;
    return Status::InvalidArgument("permanent");
  });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
}

TEST_F(FaultTest, RetryExhaustsAttemptsAndReturnsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.sleep_us = [](long) {};
  int calls = 0;
  Status status = Retry(policy, [&calls](int) {
    ++calls;
    return Status::Unavailable(StrCat("fail #", calls));
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 3);
  EXPECT_NE(status.ToString().find("fail #3"), std::string::npos);
}

TEST_F(FaultTest, RetryHonorsCustomRetryablePredicate) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.sleep_us = [](long) {};
  policy.retryable = [](const Status& s) {
    return s.code() == StatusCode::kInternal;
  };
  int calls = 0;
  Status status = Retry(policy, [&calls](int) {
    ++calls;
    return calls < 2 ? Status::Internal("flaky") : Status::OK();
  });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 2);
}

TEST_F(FaultTest, RetryDeadlineAlreadyPastMakesNoAttempt) {
  RetryPolicy policy;
  policy.sleep_us = [](long) {};
  int calls = 0;
  Status status = Retry(
      policy, [&calls](int) { ++calls; return Status::OK(); },
      RetryClock::now() - std::chrono::milliseconds(1));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(calls, 0) << "no work after the deadline";
}

TEST_F(FaultTest, RetryCutsBeforeASleepThatWouldOvershootDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_us = 50000;  // 50ms per sleep.
  policy.decorrelated_jitter = false;
  bool slept = false;
  policy.sleep_us = [&slept](long) { slept = true; };
  int calls = 0;
  const auto start = RetryClock::now();
  Status status = Retry(
      policy,
      [&calls](int) {
        ++calls;
        return Status::Unavailable("transient");
      },
      start + std::chrono::milliseconds(10));
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(calls, 1) << "the 50ms backoff cannot fit a 10ms deadline";
  EXPECT_FALSE(slept) << "the doomed sleep must be skipped entirely";
}

TEST_F(FaultTest, BackoffJitterIsDeterministicPerSeedAndBounded) {
  RetryPolicy policy;
  policy.initial_backoff_us = 100;
  policy.max_backoff_us = 10000;
  auto sequence = [&policy](uint64_t seed) {
    Backoff backoff(policy, Rng(seed));
    std::vector<long> delays;
    for (int i = 0; i < 20; ++i) delays.push_back(backoff.NextDelayUs());
    return delays;
  };
  const std::vector<long> a = sequence(12345);
  const std::vector<long> b = sequence(12345);
  const std::vector<long> c = sequence(54321);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  for (long us : a) {
    EXPECT_GE(us, policy.initial_backoff_us);
    EXPECT_LE(us, policy.max_backoff_us);
  }
}

TEST_F(FaultTest, RetryResultReturnsFirstSuccessfulValue) {
  RetryPolicy policy;
  policy.sleep_us = [](long) {};
  int calls = 0;
  Result<int> result = RetryResult<int>(policy, [&calls](int) -> Result<int> {
    ++calls;
    if (calls < 2) return Status::Unavailable("warming up");
    return 42;
  });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(calls, 2);
}

// ---- Circuit breaker --------------------------------------------------------

CircuitBreakerOptions FastBreaker() {
  CircuitBreakerOptions options;
  options.window = 8;
  options.min_samples = 2;
  options.failure_threshold = 0.5;
  options.open_duration_us = 2000;
  options.probe_interval_us = 50000;
  options.half_open_probes = 1;
  return options;
}

TEST_F(FaultTest, BreakerOpensOnFailureRateAndSheds) {
  CircuitBreaker breaker("b1", FastBreaker());
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed)
      << "one failure is below min_samples";
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow());
  const CircuitBreaker::Stats stats = breaker.stats();
  EXPECT_EQ(stats.opened, 1);
  EXPECT_EQ(stats.shed, 1);
}

TEST_F(FaultTest, BreakerHalfOpenProbeClosesOnSuccess) {
  CircuitBreaker breaker("b2", FastBreaker());
  breaker.RecordFailure();
  breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_TRUE(breaker.Allow()) << "cooldown elapsed: probe admitted";
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.Allow())
      << "probes are rate-limited; the next one is not due yet";
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.stats().closed, 1);
}

TEST_F(FaultTest, BreakerHalfOpenFailureReopens) {
  CircuitBreaker breaker("b3", FastBreaker());
  breaker.RecordFailure();
  breaker.RecordFailure();
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  ASSERT_TRUE(breaker.Allow());
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.stats().opened, 2);
}

TEST_F(FaultTest, BreakerLostProbeDoesNotWedgeHalfOpen) {
  CircuitBreakerOptions options = FastBreaker();
  options.probe_interval_us = 1000;
  CircuitBreaker breaker("b4", options);
  breaker.RecordFailure();
  breaker.RecordFailure();
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  ASSERT_TRUE(breaker.Allow());  // Probe admitted... and its outcome lost.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(breaker.Allow())
      << "after probe_interval another probe must be admitted";
}

TEST_F(FaultTest, BreakerSlowSuccessesCountAsFailures) {
  CircuitBreakerOptions options = FastBreaker();
  options.latency_threshold_us = 1000;
  CircuitBreaker breaker("b5", options);
  breaker.RecordSuccess(/*latency_us=*/5000);
  breaker.RecordSuccess(/*latency_us=*/5000);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen)
      << "a model answering too slowly is as poisoned as one erroring";
}

TEST_F(FaultTest, BreakerStateNamesAreStable) {
  EXPECT_STREQ(BreakerStateName(BreakerState::kClosed), "closed");
  EXPECT_STREQ(BreakerStateName(BreakerState::kOpen), "open");
  EXPECT_STREQ(BreakerStateName(BreakerState::kHalfOpen), "half_open");
}

// ---- Crash-safe artifact saves ---------------------------------------------

TEST_F(FaultTest, TornSaveNeverYieldsHalfReadableArtifact) {
  const ModelArtifact original = TinyVqcArtifact("torn");
  const std::string fresh = TempPath("fault_torn_fresh.qdbm");
  std::remove(fresh.c_str());
  std::remove((fresh + ".tmp").c_str());

  FaultSpec spec;
  spec.kind = FaultKind::kTornWrite;
  spec.keep_fraction = 0.4;
  FaultInjector::Global().Arm("artifact.save", spec);

  // Torn save to a fresh path: the destination must not exist at all.
  Status torn = store::SaveArtifact(original, fresh);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.code(), StatusCode::kInternal);
  EXPECT_EQ(store::LoadArtifact(fresh).status().code(),
            StatusCode::kNotFound)
      << "a torn save must never materialize the destination";
  // The partial temp file exists but can never parse as an artifact.
  std::ifstream tmp_in(fresh + ".tmp", std::ios::binary);
  ASSERT_TRUE(tmp_in.good()) << "the simulated crash leaves the partial tmp";
  EXPECT_FALSE(store::LoadArtifact(fresh + ".tmp").ok());

  // Torn overwrite of an existing artifact: the old complete file survives.
  const std::string existing = TempPath("fault_torn_existing.qdbm");
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(store::SaveArtifact(original, existing).ok());
  ModelArtifact changed = original;
  changed.params[0] = -1.25;
  FaultInjector::Global().Arm("artifact.save", spec);
  ASSERT_FALSE(store::SaveArtifact(changed, existing).ok());
  Result<ModelArtifact> survivor = store::LoadArtifact(existing);
  ASSERT_TRUE(survivor.ok()) << survivor.status();
  EXPECT_EQ(survivor.value().params[0], original.params[0])
      << "the destination must still hold the previous complete artifact";
}

TEST_F(FaultTest, TornSaveScopeTargetsOneArtifact) {
  FaultSpec spec;
  spec.kind = FaultKind::kTornWrite;
  spec.target = "poisoned";
  FaultInjector::Global().Arm("artifact.save", spec);
  const std::string path = TempPath("fault_scoped_save.qdbm");
  EXPECT_TRUE(store::SaveArtifact(TinyVqcArtifact("healthy"), path).ok());
  EXPECT_FALSE(store::SaveArtifact(TinyVqcArtifact("poisoned"), path).ok());
}

TEST_F(FaultTest, LoadModelRetriesTransientReadFaults) {
  const std::string path = TempPath("fault_load_retry.qdbm");
  ASSERT_TRUE(store::SaveArtifact(TinyVqcArtifact("retry-load"), path).ok());

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.probability = 0.5;
  spec.seed = 1234;
  constexpr int kAttempts = 5;

  // Probe the seeded stream: on which attempt does the fault NOT fire?
  FaultInjector::Global().Arm("artifact.load", spec);
  int first_clean_attempt = -1;
  for (int i = 1; i <= kAttempts; ++i) {
    if (!FaultInjector::Global().Sample("artifact.load", path).has_value()) {
      first_clean_attempt = i;
      break;
    }
  }
  // Re-arm (resetting the stream) and let LoadModel live through it.
  FaultInjector::Global().Arm("artifact.load", spec);
  RetryPolicy retry = serve::DefaultArtifactLoadRetry();
  retry.max_attempts = kAttempts;
  retry.sleep_us = [](long) {};
  ModelRegistry registry;
  Result<std::shared_ptr<const serve::ServableModel>> loaded =
      registry.LoadModel(path, /*reassign_version=*/false, retry);
  if (first_clean_attempt > 0) {
    ASSERT_TRUE(loaded.ok())
        << "attempt " << first_clean_attempt
        << " was clean, so the retry loop must succeed: " << loaded.status();
    EXPECT_EQ(registry.size(), 1u);
  } else {
    EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
  }
}

// ---- Serving-stack degradation ---------------------------------------------

TEST_F(FaultTest, BreakerShedServesBoundedStaleCacheEntries) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register(TinyVqcArtifact("m")).ok());
  ServerOptions opts;
  opts.max_wait_us = 0;
  opts.retry.max_attempts = 1;  // Fail fast: the breaker is under test.
  opts.result_cache_ttl_us = 1000;   // Entries go stale after 1ms.
  opts.max_stale_age_us = 0;         // Degraded serving accepts any age.
  opts.breaker.window = 8;
  opts.breaker.min_samples = 2;
  opts.breaker.failure_threshold = 0.5;
  opts.breaker.open_duration_us = 60000000;  // Stays open for the test.
  InferenceServer server(registry, opts);
  ASSERT_TRUE(server.Start().ok());

  const DVector x = {0.25, 0.75};
  Result<InferenceResponse> warm = server.Submit(Request("m", x)).get();
  ASSERT_TRUE(warm.ok()) << warm.status();
  const double fresh_value = warm.value().result.value;
  std::this_thread::sleep_for(std::chrono::milliseconds(3));  // Goes stale.

  // Poison the model: every execution now fails terminally. The warm
  // success plus this failure puts the breaker window at 1/2 = 50% ≥ the
  // threshold with min_samples met, so one failure is enough to open it.
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.error_code = StatusCode::kInternal;
  spec.target = "m";
  FaultInjector::Global().Arm("servable.run", spec);
  Result<InferenceResponse> failed = server.Submit(Request("m", x)).get();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  ASSERT_NE(server.breaker("m", 1), nullptr);
  EXPECT_EQ(server.breaker("m", 1)->state(), BreakerState::kOpen);

  // Breaker open + stale entry available → degraded response, not an error.
  Result<InferenceResponse> degraded = server.Submit(Request("m", x)).get();
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_TRUE(degraded.value().degraded);
  EXPECT_TRUE(degraded.value().from_cache);
  EXPECT_EQ(degraded.value().result.value, fresh_value);

  // A request with no cached answer is shed with kUnavailable.
  Result<InferenceResponse> shed =
      server.Submit(Request("m", {0.9, 0.1})).get();
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);

  const InferenceServer::Stats stats = server.stats();
  EXPECT_GE(stats.degraded, 1);
  EXPECT_EQ(stats.submitted, stats.completed + stats.cache_hits +
                                 stats.degraded + stats.rejected +
                                 stats.expired + stats.failed);
  server.Shutdown();
}

TEST_F(FaultTest, StalenessBoundRejectsAncientEntries) {
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register(TinyVqcArtifact("m")).ok());
  ServerOptions opts;
  opts.max_wait_us = 0;
  opts.retry.max_attempts = 1;
  opts.result_cache_ttl_us = 500;
  opts.max_stale_age_us = 1000;  // Entries older than 1ms are unusable.
  opts.breaker.min_samples = 2;
  opts.breaker.failure_threshold = 0.5;
  opts.breaker.open_duration_us = 60000000;
  InferenceServer server(registry, opts);
  ASSERT_TRUE(server.Start().ok());

  const DVector x = {0.3, 0.6};
  ASSERT_TRUE(server.Submit(Request("m", x)).get().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // Too old.

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.error_code = StatusCode::kInternal;
  spec.target = "m";
  FaultInjector::Global().Arm("servable.run", spec);
  for (int i = 0; i < 2; ++i) {
    ASSERT_FALSE(server.Submit(Request("m", x)).get().ok());
  }
  ASSERT_EQ(server.breaker("m", 1)->state(), BreakerState::kOpen);

  Result<InferenceResponse> shed = server.Submit(Request("m", x)).get();
  ASSERT_FALSE(shed.ok()) << "a 5ms-old entry exceeds the 1ms bound";
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  server.Shutdown();
}

TEST_F(FaultTest, CompiledExecutionFaultFallsBackToInterpreted) {
  // Baseline value through the healthy compiled path.
  Result<std::shared_ptr<const serve::ServableModel>> servable =
      serve::ServableModel::Create(TinyVqcArtifact("fallback"));
  ASSERT_TRUE(servable.ok()) << servable.status();
  const std::vector<DVector> inputs = {{0.2, 0.4}, {0.6, 0.8}};
  Result<std::vector<serve::InferenceValue>> healthy =
      servable.value()->RunBatch(serve::RequestKind::kPredict, inputs);
  ASSERT_TRUE(healthy.ok()) << healthy.status();

  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.target = "fallback";
  FaultInjector::Global().Arm("servable.compiled_exec", spec);
  Result<std::vector<serve::InferenceValue>> degraded =
      servable.value()->RunBatch(serve::RequestKind::kPredict, inputs);
  ASSERT_TRUE(degraded.ok())
      << "a compiled-path fault must degrade, not fail: " << degraded.status();
  ASSERT_EQ(degraded.value().size(), healthy.value().size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_NEAR(degraded.value()[i].value, healthy.value()[i].value, 1e-12)
        << "interpreted fallback must agree with the compiled path";
    EXPECT_EQ(degraded.value()[i].label, healthy.value()[i].label);
  }
}

TEST_F(FaultTest, SpuriousWakeupsDoNotDisturbServing) {
  FaultSpec spec;
  spec.kind = FaultKind::kSpuriousWake;
  spec.probability = 1.0;
  FaultInjector::Global().Arm("serve.queue_wait", spec);
  ModelRegistry registry;
  ASSERT_TRUE(registry.Register(TinyVqcArtifact("m")).ok());
  ServerOptions opts;
  opts.max_wait_us = 50;
  InferenceServer server(registry, opts);
  ASSERT_TRUE(server.Start().ok());
  for (int i = 0; i < 8; ++i) {
    const double a = 0.1 * static_cast<double>(i);
    Result<InferenceResponse> response =
        server.Submit(Request("m", {a, 1.0 - a})).get();
    ASSERT_TRUE(response.ok()) << response.status();
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().completed, 8);
}

// ---- Seeded chaos: the error storm ------------------------------------------

/// One sequential error-storm run: a single client submits `count` distinct
/// requests one at a time (deterministic dispatch order → deterministic
/// Bernoulli draws) against a 20% injected kUnavailable on serve.dispatch.
/// Returns one (ok, attempts) signature per request.
std::vector<std::pair<bool, int>> RunErrorStorm(int count) {
  FaultInjector::Global().DisarmAll();
  EXPECT_TRUE(FaultInjector::Global()
                  .ArmFromSpecString("serve.dispatch:error:0.2:1337")
                  .ok());
  ModelRegistry registry;
  EXPECT_TRUE(registry.Register(TinyVqcArtifact("storm")).ok());
  ServerOptions opts;
  opts.max_wait_us = 0;
  opts.num_dispatchers = 1;
  opts.retry.max_attempts = 4;
  opts.retry.initial_backoff_us = 100;
  opts.retry.max_backoff_us = 500;
  InferenceServer server(registry, opts);
  EXPECT_TRUE(server.Start().ok());
  std::vector<std::pair<bool, int>> signature;
  signature.reserve(count);
  for (int i = 0; i < count; ++i) {
    const double a = 0.01 * static_cast<double>(i);
    Result<InferenceResponse> response =
        server.Submit(Request("storm", {a, 1.0 - a})).get();
    signature.emplace_back(response.ok(),
                           response.ok() ? response.value().attempts : -1);
  }
  server.Shutdown();
  const InferenceServer::Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, stats.completed + stats.cache_hits +
                                 stats.degraded + stats.rejected +
                                 stats.expired + stats.failed)
      << "every chaos request must land in exactly one terminal bucket";
  return signature;
}

TEST_F(FaultTest, ErrorStormEveryRequestTerminatesAndMostSucceed) {
  constexpr int kRequests = 60;
  const std::vector<std::pair<bool, int>> run = RunErrorStorm(kRequests);
  ASSERT_EQ(run.size(), static_cast<size_t>(kRequests))
      << "every request future resolved with a definitive status";
  int ok_count = 0;
  int retried = 0;
  for (const auto& [ok, attempts] : run) {
    if (ok) ++ok_count;
    if (ok && attempts > 1) ++retried;
  }
  EXPECT_GE(ok_count, (kRequests * 95) / 100)
      << "at 20% per-attempt faults and 4 attempts, ≥95% must succeed";
  EXPECT_GT(retried, 0) << "some requests must have needed a retry";
}

TEST_F(FaultTest, ErrorStormIsBitReproducibleAcrossRuns) {
  constexpr int kRequests = 60;
  const std::vector<std::pair<bool, int>> first = RunErrorStorm(kRequests);
  const std::vector<std::pair<bool, int>> second = RunErrorStorm(kRequests);
  EXPECT_EQ(first, second)
      << "same QDB_FAULTS seed + sequential traffic → identical outcomes";
}

// ---- QDB_FAULTS chaos profiles (scripts/chaos.sh) ---------------------------

/// Driven by scripts/chaos.sh with QDB_FAULTS set to one of the seeded
/// profiles (error-storm, latency-spike, torn-write). Skips when the
/// variable is unset so a plain ctest run stays deterministic. The
/// invariants are profile-agnostic: saves never leave a half-readable
/// artifact, every serve request terminates with a definitive Status, the
/// terminal buckets account for every admission, and re-arming the same
/// spec replays the run bit for bit.
TEST_F(FaultTest, ChaosProfileFromEnvEveryRequestTerminates) {
  const char* profile = std::getenv("QDB_FAULTS");
  if (profile == nullptr || profile[0] == '\0') {
    GTEST_SKIP() << "QDB_FAULTS not set; run via scripts/chaos.sh";
  }

  auto run_profile = [&] {
    FaultInjector::Global().DisarmAll();
    EXPECT_TRUE(FaultInjector::Global().ArmFromEnv().ok()) << profile;
    EXPECT_TRUE(FaultInjector::Global().enabled())
        << "a chaos profile must arm at least one point";

    // Crash-safe persistence under the profile: a save either completes
    // (and round-trips) or fails without materializing the destination.
    const std::string path = TempPath("chaos_profile.qdbm");
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    const ModelArtifact artifact = TinyVqcArtifact("chaos");
    int saves_ok = 0;
    for (int i = 0; i < 8; ++i) {
      if (store::SaveArtifact(artifact, path).ok()) {
        ++saves_ok;
        Result<ModelArtifact> back = store::LoadArtifact(path);
        EXPECT_TRUE(back.ok()) << back.status();
      } else {
        std::remove(path.c_str());  // Start the next save from a clean slate.
        EXPECT_EQ(store::LoadArtifact(path).status().code(),
                  StatusCode::kNotFound)
            << "a failed save must never leave a readable destination";
      }
    }

    // Serving under the profile: sequential traffic, so the outcome
    // signature is a pure function of the armed seeds.
    ModelRegistry registry;
    EXPECT_TRUE(registry.Register(TinyVqcArtifact("chaos-serve")).ok());
    ServerOptions opts;
    opts.max_wait_us = 0;
    opts.num_dispatchers = 1;
    opts.retry.initial_backoff_us = 100;
    opts.retry.max_backoff_us = 500;
    InferenceServer server(registry, opts);
    EXPECT_TRUE(server.Start().ok());
    std::vector<std::pair<bool, int>> signature;
    for (int i = 0; i < 32; ++i) {
      const double a = 0.03 * static_cast<double>(i);
      Result<InferenceResponse> response =
          server.Submit(Request("chaos-serve", {a, 1.0 - a})).get();
      signature.emplace_back(response.ok(),
                             response.ok() ? response.value().attempts : -1);
    }
    server.Shutdown();
    const InferenceServer::Stats stats = server.stats();
    EXPECT_EQ(stats.submitted, 32);
    EXPECT_EQ(stats.submitted, stats.completed + stats.cache_hits +
                                   stats.degraded + stats.rejected +
                                   stats.expired + stats.failed)
        << "every request must land in exactly one terminal bucket";
    return std::make_pair(saves_ok, signature);
  };

  const auto first = run_profile();
  const auto second = run_profile();
  EXPECT_EQ(first, second)
      << "the same QDB_FAULTS seeds must replay bit for bit";
}

// ---- Metrics export ---------------------------------------------------------

TEST_F(FaultTest, ResilienceHistogramsAppearInJsonExport) {
  // Touch both histograms: a retried call and a breaker open→close cycle.
  RetryPolicy policy;
  policy.sleep_us = [](long) {};
  int calls = 0;
  EXPECT_TRUE(Retry(policy, [&calls](int) {
                return ++calls < 2 ? Status::Unavailable("x") : Status::OK();
              }).ok());
  CircuitBreakerOptions options = FastBreaker();
  options.open_duration_us = 1000;
  options.probe_interval_us = 0;
  CircuitBreaker breaker("export", options);
  breaker.RecordFailure();
  breaker.RecordFailure();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordSuccess();

  const std::string json = obs::MetricsRegistry::Global().ExportJson();
  EXPECT_NE(json.find("\"fault.retry.attempts\""), std::string::npos);
  EXPECT_NE(json.find("\"fault.breaker.open_duration_us\""),
            std::string::npos);
  EXPECT_NE(json.find("\"fault.breaker.state.export\""), std::string::npos);
  EXPECT_NE(json.find("\"fault.breaker.opened\""), std::string::npos);
}

}  // namespace
}  // namespace fault
}  // namespace qdb
