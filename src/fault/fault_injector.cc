#include "fault/fault_injector.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <thread>

#include "common/strings.h"
#include "obs/obs.h"

namespace qdb {
namespace fault {

namespace {

/// fault.* metric handles, resolved once.
struct FaultMetrics {
  obs::Gauge* points_armed = obs::GetGauge("fault.points_armed");
  obs::Counter* evaluations = obs::GetCounter("fault.evaluations");
  obs::Counter* injected_error = obs::GetCounter("fault.injected.error");
  obs::Counter* injected_latency = obs::GetCounter("fault.injected.latency");
  obs::Counter* injected_torn = obs::GetCounter("fault.injected.torn_write");
  obs::Counter* injected_wake =
      obs::GetCounter("fault.injected.spurious_wake");
  obs::Counter* injected_kill = obs::GetCounter("fault.injected.kill");
  /// QDB_FAULTS specs naming a point this binary never registered.
  obs::Counter* unknown_point = obs::GetCounter("fault.unknown_point");
};

FaultMetrics& Metrics() {
  static FaultMetrics metrics;
  return metrics;
}

obs::Counter* FiredCounter(FaultKind kind) {
  switch (kind) {
    case FaultKind::kError: return Metrics().injected_error;
    case FaultKind::kLatency: return Metrics().injected_latency;
    case FaultKind::kTornWrite: return Metrics().injected_torn;
    case FaultKind::kSpuriousWake: return Metrics().injected_wake;
    case FaultKind::kKill: return Metrics().injected_kill;
  }
  return Metrics().injected_error;
}

/// Fault points compiled into this binary. Call sites declare points as
/// string literals, so this list is maintained alongside them (fault_test
/// pins the names that matter to chaos profiles).
const std::set<std::string>& KnownPoints() {
  static const std::set<std::string>* points = new std::set<std::string>{
      "artifact.load",          // model_registry.cc LoadModel retry loop
      "artifact.save",          // binary_format.cc AtomicWriteFile
      "serve.dispatch",         // inference_server.cc batch execution
      "serve.queue_wait",       // inference_server.cc dispatcher cv wait
      "servable.compiled_exec", // servable.cc compiled-circuit execution
      "servable.run",           // servable.cc batch run
      "sim.run",                // simulator execution
      "store.journal.append",   // registry_journal.cc record append
      "store.journal.compact",  // registry_journal.cc snapshot→reset window
      "store.journal.replay",   // registry_journal.cc journal read at Open
      "store.prefetch",         // async_loader.cc worker jobs
      "store.read",             // binary_format.cc ReadFileBytes
  };
  return *points;
}

std::vector<std::string> SplitOn(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream is(text);
  while (std::getline(is, part, sep)) parts.push_back(part);
  return parts;
}

Result<double> ParseDoubleField(const std::string& raw, const char* what) {
  std::istringstream is(raw);
  double v = 0.0;
  if (!(is >> v) || !is.eof()) {
    return Status::InvalidArgument(
        StrCat("fault spec: '", raw, "' is not a valid ", what));
  }
  return v;
}

Result<long long> ParseIntField(const std::string& raw, const char* what) {
  std::istringstream is(raw);
  long long v = 0;
  if (!(is >> v) || !is.eof()) {
    return Status::InvalidArgument(
        StrCat("fault spec: '", raw, "' is not a valid ", what));
  }
  return v;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kError: return "error";
    case FaultKind::kLatency: return "latency";
    case FaultKind::kTornWrite: return "torn_write";
    case FaultKind::kSpuriousWake: return "spurious_wake";
    case FaultKind::kKill: return "kill";
  }
  return "error";
}

Result<FaultKind> ParseFaultKind(const std::string& name) {
  if (name == "error") return FaultKind::kError;
  if (name == "latency") return FaultKind::kLatency;
  if (name == "torn_write" || name == "torn") return FaultKind::kTornWrite;
  if (name == "spurious_wake" || name == "wake") {
    return FaultKind::kSpuriousWake;
  }
  if (name == "kill") return FaultKind::kKill;
  return Status::InvalidArgument(
      StrCat("unknown fault kind '", name,
             "' (want error, latency, torn_write, spurious_wake, or kill)"));
}

void KillProcess() {
  // SIGKILL cannot be caught or ignored: no atexit handlers, no stream
  // flushes, no destructors run. The raise only "fails" if signals are
  // broken entirely, in which case abort keeps the promise of not
  // returning.
  std::raise(SIGKILL);
  std::abort();
}

bool IsKnownFaultPoint(const std::string& point) {
  return KnownPoints().count(point) > 0;
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Arm(const std::string& point, const FaultSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  ArmedPoint armed;
  armed.spec = spec;
  armed.spec.probability =
      spec.probability < 0.0 ? 0.0 : (spec.probability > 1.0 ? 1.0
                                                             : spec.probability);
  // Split off the point's private stream instead of using the seed state
  // directly: two points armed with the same seed still draw decorrelated
  // sequences, and re-arming resets the stream for reproducible runs.
  Rng base(spec.seed);
  armed.rng = base.Split();
  points_[point] = std::move(armed);
  armed_points_.store(static_cast<int>(points_.size()),
                      std::memory_order_relaxed);
  Metrics().points_armed->Set(static_cast<double>(points_.size()));
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
  armed_points_.store(0, std::memory_order_relaxed);
  Metrics().points_armed->Set(0.0);
}

Status FaultInjector::ArmFromSpecString(const std::string& specs) {
  for (const std::string& entry : SplitOn(specs, ',')) {
    if (entry.empty()) continue;
    const std::vector<std::string> fields = SplitOn(entry, ':');
    if (fields.size() < 4 || fields.size() > 6) {
      return Status::InvalidArgument(
          StrCat("fault spec '", entry,
                 "' must be point:kind:probability:seed[:value][:target]"));
    }
    if (fields[0].empty()) {
      return Status::InvalidArgument(
          StrCat("fault spec '", entry, "' has an empty point name"));
    }
    FaultSpec spec;
    QDB_ASSIGN_OR_RETURN(spec.kind, ParseFaultKind(fields[1]));
    QDB_ASSIGN_OR_RETURN(spec.probability,
                         ParseDoubleField(fields[2], "probability"));
    if (spec.probability < 0.0 || spec.probability > 1.0) {
      return Status::InvalidArgument(
          StrCat("fault spec '", entry, "': probability must be in [0, 1]"));
    }
    QDB_ASSIGN_OR_RETURN(long long seed, ParseIntField(fields[3], "seed"));
    spec.seed = static_cast<uint64_t>(seed);
    if (fields.size() >= 5 && !fields[4].empty()) {
      switch (spec.kind) {
        case FaultKind::kError: {
          QDB_ASSIGN_OR_RETURN(long long code,
                               ParseIntField(fields[4], "status code"));
          if (code <= 0 || code > static_cast<long long>(
                                      StatusCode::kDeadlineExceeded)) {
            return Status::InvalidArgument(
                StrCat("fault spec '", entry, "': status code ", code,
                       " is not an error code"));
          }
          spec.error_code = static_cast<StatusCode>(code);
          break;
        }
        case FaultKind::kLatency: {
          QDB_ASSIGN_OR_RETURN(long long us,
                               ParseIntField(fields[4], "latency"));
          if (us < 0) {
            return Status::InvalidArgument(
                StrCat("fault spec '", entry, "': latency must be >= 0"));
          }
          spec.latency_us = static_cast<long>(us);
          break;
        }
        case FaultKind::kTornWrite:
        case FaultKind::kKill: {
          // For kill faults the fraction is how much of the payload a write
          // site persists before the SIGKILL lands.
          QDB_ASSIGN_OR_RETURN(spec.keep_fraction,
                               ParseDoubleField(fields[4], "keep fraction"));
          if (spec.keep_fraction < 0.0 || spec.keep_fraction > 1.0) {
            return Status::InvalidArgument(StrCat(
                "fault spec '", entry, "': keep fraction must be in [0, 1]"));
          }
          break;
        }
        case FaultKind::kSpuriousWake:
          break;  // No value field.
      }
    }
    if (fields.size() == 6) spec.target = fields[5];
    Arm(fields[0], spec);
  }
  return Status::OK();
}

Status FaultInjector::ArmFromEnv() {
  const char* env = std::getenv("QDB_FAULTS");
  if (env == nullptr || env[0] == '\0') return Status::OK();
  QDB_RETURN_IF_ERROR(ArmFromSpecString(env));
  // A typo'd point name parses fine and arms fine — and then never fires,
  // which reads as "the system survived chaos" when no chaos ran. Warn
  // loudly instead of silently blessing the run. The point stays armed: an
  // out-of-tree call site may still know it.
  for (const std::string& entry : SplitOn(env, ',')) {
    if (entry.empty()) continue;
    const std::string point = SplitOn(entry, ':').front();
    if (IsKnownFaultPoint(point)) continue;
    std::fprintf(stderr,
                 "warning: QDB_FAULTS names fault point '%s', which no call "
                 "site in this binary registers — it will never fire\n",
                 point.c_str());
    Metrics().unknown_point->Increment();
  }
  return Status::OK();
}

std::optional<FaultSpec> FaultInjector::Sample(const char* point,
                                               const std::string& scope) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  if (it == points_.end()) return std::nullopt;
  ArmedPoint& armed = it->second;
  if (!armed.spec.target.empty() && armed.spec.target != scope) {
    return std::nullopt;  // Filtered out: consumes no draw.
  }
  ++armed.evaluations;
  Metrics().evaluations->Increment();
  if (!armed.rng.Bernoulli(armed.spec.probability)) return std::nullopt;
  ++armed.fired;
  FiredCounter(armed.spec.kind)->Increment();
  return armed.spec;
}

Status FaultInjector::Inject(const char* point, const std::string& scope) {
  std::optional<FaultSpec> fired = Sample(point, scope);
  if (!fired.has_value()) return Status::OK();
  switch (fired->kind) {
    case FaultKind::kError:
      return Status(fired->error_code,
                    StrCat("injected fault at '", point, "'"));
    case FaultKind::kLatency:
      std::this_thread::sleep_for(
          std::chrono::microseconds(fired->latency_us));
      return Status::OK();
    case FaultKind::kKill:
      // A generic point has no payload to half-write: the process dies on
      // the spot. Write sites that want the partial-persist flavor handle
      // kKill themselves via Sample.
      KillProcess();
    case FaultKind::kTornWrite:
    case FaultKind::kSpuriousWake:
      // These kinds need call-site cooperation (Sample); a generic point
      // treats them as a no-op rather than failing spuriously.
      return Status::OK();
  }
  return Status::OK();
}

FaultInjector::PointStats FaultInjector::stats(
    const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(point);
  PointStats stats;
  if (it != points_.end()) {
    stats.evaluations = it->second.evaluations;
    stats.fired = it->second.fired;
  }
  return stats;
}

std::vector<std::string> FaultInjector::ArmedPoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, armed] : points_) names.push_back(name);
  return names;
}

std::vector<FaultInjector::ArmedPointStatus> FaultInjector::SnapshotArmed()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ArmedPointStatus> out;
  out.reserve(points_.size());
  for (const auto& [name, armed] : points_) {
    ArmedPointStatus status;
    status.point = name;
    status.spec = armed.spec;
    status.evaluations = armed.evaluations;
    status.fired = armed.fired;
    out.push_back(std::move(status));
  }
  return out;  // std::map iteration is already name-sorted.
}

}  // namespace fault
}  // namespace qdb
