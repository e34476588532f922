/// \file fault_injector.h
/// \brief Deterministic fault injection: a registry of named fault points
/// that production code declares with QDB_FAULT_POINT and chaos tests arm
/// programmatically or via the QDB_FAULTS environment variable.
///
/// A fault point is a name ("serve.dispatch", "artifact.save", ...) plus an
/// optional scope string (e.g. the model name) so one point can target a
/// single servable. Disarmed points cost one relaxed atomic load and a
/// predicted branch — they are compiled into hot paths permanently, like
/// trace spans. Armed points draw from a per-point xoshiro stream derived
/// with Rng::Split from the spec's seed, so a chaos run with a fixed
/// QDB_FAULTS string is bit-reproducible: the k-th evaluation of a point
/// fires (or not) identically across runs.
///
/// Spec string grammar (comma-separated list):
///
///   point:kind:probability:seed[:value][:target]
///
///   kind   = error | latency | torn_write | spurious_wake | kill
///   value  = status-code number for `error` (default 9 = unavailable),
///            microseconds for `latency` (default 1000),
///            kept byte fraction in [0,1] for `torn_write` (default 0.5),
///            kept byte fraction in [0,1] for `kill` at write-site points
///            (default 0.5; elsewhere the process dies before the operation)
///   target = scope filter; the fault only fires at call sites whose scope
///            string matches exactly (empty = fire everywhere)
///
/// Example: QDB_FAULTS="serve.dispatch:error:0.2:1337,artifact.save:torn_write:1:7:0.4"
///
/// ArmFromEnv cross-checks each spec's point name against the registry of
/// points compiled into this binary (IsKnownFaultPoint): a typo'd name is
/// still armed, but warned about on stderr and counted in
/// fault.unknown_point, instead of silently never firing.

#ifndef QDB_FAULT_FAULT_INJECTOR_H_
#define QDB_FAULT_FAULT_INJECTOR_H_

#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"

namespace qdb {
namespace fault {

/// What an armed fault point does when it fires.
enum class FaultKind {
  kError,         ///< Return a non-OK Status (default kUnavailable).
  kLatency,       ///< Sleep for latency_us, then proceed normally.
  kTornWrite,     ///< Writers persist only keep_fraction of their payload.
  kSpuriousWake,  ///< Condition waits return early without a real signal.
  kKill,          ///< SIGKILL the process — a real crash, not a simulated
                  ///< one. Write sites first persist keep_fraction of their
                  ///< payload, so the kill lands mid-write like a power cut.
};

const char* FaultKindName(FaultKind kind);
Result<FaultKind> ParseFaultKind(const std::string& name);

/// Dies by SIGKILL — no atexit handlers, no flushes, no destructors — so a
/// kill fault is indistinguishable from `kill -9` to the recovery path.
[[noreturn]] void KillProcess();

/// True when `point` names a fault point compiled into this binary. The
/// call sites declare points as string literals; this registry is the
/// authoritative list ArmFromEnv validates spec names against.
bool IsKnownFaultPoint(const std::string& point);

/// \brief One armed fault: what to inject, how often, and where.
struct FaultSpec {
  FaultKind kind = FaultKind::kError;
  /// Per-evaluation fire probability, clamped to [0, 1].
  double probability = 1.0;
  /// Seed of the point's private Rng stream (bit-reproducible draws).
  uint64_t seed = 0;
  /// Status code injected by kError faults.
  StatusCode error_code = StatusCode::kUnavailable;
  /// Sleep injected by kLatency faults.
  long latency_us = 1000;
  /// Fraction of the payload a kTornWrite fault lets reach the file.
  double keep_fraction = 0.5;
  /// Exact-match scope filter; empty fires at every call site of the point.
  std::string target;
};

/// \brief Process-wide fault-point registry (singleton).
///
/// Thread-safe: Arm/DisarmAll/Sample take an internal lock; enabled() is a
/// relaxed load so disarmed hot paths never contend.
class FaultInjector {
 public:
  static FaultInjector& Global();

  /// Arms (or re-arms, resetting the Rng stream and tallies) one point.
  void Arm(const std::string& point, const FaultSpec& spec);
  void DisarmAll();

  /// Parses and arms a spec-string list (see file comment for the grammar).
  Status ArmFromSpecString(const std::string& specs);
  /// Arms from the QDB_FAULTS environment variable; OK no-op when unset.
  /// Call sites opt in explicitly (tests, demos, chaos harnesses) — library
  /// code never arms faults on its own. Specs naming a point this binary
  /// never registered are still armed, but warned about on stderr and
  /// counted in fault.unknown_point (see IsKnownFaultPoint).
  Status ArmFromEnv();

  /// True when at least one point is armed (one relaxed atomic load).
  bool enabled() const {
    return armed_points_.load(std::memory_order_relaxed) > 0;
  }

  /// Evaluates `point` for `scope`: returns the armed spec when the fault
  /// fires this time, nullopt when disarmed / filtered / not fired. Each
  /// matching evaluation consumes exactly one Bernoulli draw from the
  /// point's stream (scope mismatches consume none), so draw sequences are
  /// reproducible for a fixed evaluation order.
  std::optional<FaultSpec> Sample(const char* point,
                                  const std::string& scope = std::string());

  /// Full handling for error/latency faults: sleeps on latency and returns
  /// OK, returns the injected Status on error, returns OK for the kinds a
  /// call site must interpret itself (torn writes, spurious wakeups).
  Status Inject(const char* point, const std::string& scope = std::string());

  /// Per-point evaluation/fire tallies since the point was (re-)armed.
  struct PointStats {
    long evaluations = 0;
    long fired = 0;
  };
  PointStats stats(const std::string& point) const;
  std::vector<std::string> ArmedPoints() const;

  /// One armed point's spec plus its tallies, for introspection pages
  /// (InferenceServer::Statusz renders these as its fault block).
  struct ArmedPointStatus {
    std::string point;
    FaultSpec spec;
    long evaluations = 0;
    long fired = 0;
  };
  /// Every armed point, sorted by name, with a consistent tally snapshot.
  std::vector<ArmedPointStatus> SnapshotArmed() const;

 private:
  struct ArmedPoint {
    FaultSpec spec;
    Rng rng{0};
    long evaluations = 0;
    long fired = 0;
  };

  FaultInjector() = default;

  std::atomic<int> armed_points_{0};
  mutable std::mutex mu_;
  std::map<std::string, ArmedPoint> points_;
};

/// Fast-path helper: one relaxed load when nothing is armed.
inline Status MaybeInject(const char* point) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.enabled()) return Status::OK();
  return injector.Inject(point);
}
inline Status MaybeInject(const char* point, const std::string& scope) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.enabled()) return Status::OK();
  return injector.Inject(point, scope);
}

/// True when a spurious-wakeup fault fires at `point` — condition-wait
/// loops use this to exercise their wakeup-safety deterministically.
inline bool SpuriousWake(const char* point) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.enabled()) return false;
  std::optional<FaultSpec> fired = injector.Sample(point);
  return fired.has_value() && fired->kind == FaultKind::kSpuriousWake;
}

/// Declares a fault point in a function returning Status or Result<T>:
/// propagates an injected error, sleeps through an injected latency spike,
/// and costs one relaxed load + branch when nothing is armed.
#define QDB_FAULT_POINT(point) \
  QDB_RETURN_IF_ERROR(::qdb::fault::MaybeInject(point))

/// Scoped variant: the armed spec's `target` filter is matched against
/// `scope` (e.g. a model name), so chaos runs can poison one servable.
#define QDB_FAULT_POINT_SCOPED(point, scope) \
  QDB_RETURN_IF_ERROR(::qdb::fault::MaybeInject(point, scope))

}  // namespace fault
}  // namespace qdb

#endif  // QDB_FAULT_FAULT_INJECTOR_H_
