#include "sim/statevector_simulator.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "fault/fault_injector.h"
#include "obs/obs.h"
#include "sim/compiled_circuit.h"
#include "sim/simd.h"
#include "sim/walsh.h"

namespace qdb {

namespace {

/// Run and batch counts; per-kernel-class gate counts live with the
/// dispatch in sim/compiled_circuit.cc. Registry lookups happen once
/// (function-local static).
struct SimCounters {
  obs::Counter* runs = obs::GetCounter("sim.runs");
  obs::Counter* batches = obs::GetCounter("sim.batches");
  obs::Counter* batch_circuits = obs::GetCounter("sim.batch_circuits");
};

SimCounters& Counters() {
  static SimCounters counters;
  return counters;
}

/// Shortest circuit RunInPlace compiles: single gates gain nothing from
/// lowering; everything else wins from fusion and/or the
/// compile-once-replay-many cache.
constexpr size_t kCompileFromGates = 2;

/// Fails unless `state` and `params` fit `circuit`; counts the run.
Status BeginRun(const Circuit& circuit, const StateVector& state,
                const DVector& params) {
  if (state.num_qubits() != circuit.num_qubits()) {
    return Status::InvalidArgument(
        StrCat("state has ", state.num_qubits(), " qubits but circuit has ",
               circuit.num_qubits()));
  }
  if (static_cast<int>(params.size()) < circuit.num_parameters()) {
    return Status::InvalidArgument(
        StrCat("circuit references ", circuit.num_parameters(),
               " parameters but only ", params.size(), " were bound"));
  }
  Counters().runs->Increment();
  return Status::OK();
}

}  // namespace

Result<StateVector> StateVectorSimulator::Run(const Circuit& circuit,
                                              const DVector& params) const {
  StateVector state(circuit.num_qubits());
  QDB_RETURN_IF_ERROR(RunInPlace(circuit, state, params));
  return state;
}

Status StateVectorSimulator::RunInPlace(const Circuit& circuit,
                                        StateVector& state,
                                        const DVector& params) const {
  if (circuit.size() < kCompileFromGates) {
    return RunStreamed(circuit, state, params);
  }
  QDB_RETURN_IF_ERROR(BeginRun(circuit, state, params));
  QDB_TRACE_SCOPE("StateVectorSimulator::Run", "sim");
  std::shared_ptr<const CompiledCircuit> program =
      CompilationCache::Global().GetOrCompile(circuit);
  return program->Execute(state, params);
}

Status StateVectorSimulator::RunStreamed(const Circuit& circuit,
                                         StateVector& state,
                                         const DVector& params) const {
  QDB_RETURN_IF_ERROR(BeginRun(circuit, state, params));
  QDB_TRACE_SCOPE("StateVectorSimulator::Run", "sim");
  for (size_t i = 0; i < circuit.gates().size(); ++i) {
    StreamGate(circuit.gates()[i], circuit.EvaluateAngles(i, params), state);
  }
  return Status::OK();
}

Status StateVectorSimulator::RunBatchReduce(
    const std::vector<Circuit>& circuits,
    const std::vector<DVector>& params_list,
    const StateVector* initial_state,
    const std::function<Status(size_t, StateVector&&)>& consume) const {
  const size_t nc = circuits.size();
  const size_t np = params_list.size();
  if (nc == 0) return Status::OK();
  if (nc > 1 && np > 1 && np != nc) {
    return Status::InvalidArgument(
        StrCat("batch has ", nc, " circuits but ", np,
               " parameter vectors (need 0, 1, or one per circuit)"));
  }
  const size_t count = std::max(nc, np);
  // Fault point "sim.run": lets chaos runs fail or delay whole simulator
  // batches below the serving layer, exercising its retry path end to end.
  QDB_FAULT_POINT("sim.run");
  QDB_TRACE_SCOPE("StateVectorSimulator::RunBatch", "sim");
  Counters().batches->Increment();
  Counters().batch_circuits->Increment(static_cast<long>(count));
  // Broadcast batches replay one circuit `count` times: compile it before
  // the fan-out so workers hit the cache instead of serializing on the
  // first-miss compile inside the cache lock.
  if (nc == 1 && circuits[0].size() >= kCompileFromGates) {
    CompilationCache::Global().GetOrCompile(circuits[0]);
  }
  static const DVector kNoParams;
  std::vector<Status> statuses(count);
  ThreadPool::Global().RunTasks(count, [&](size_t i) {
    QDB_TRACE_SCOPE("StateVectorSimulator::RunBatchTask", "sim");
    const Circuit& circuit = circuits[nc == 1 ? 0 : i];
    const DVector& params =
        np == 0 ? kNoParams : params_list[np == 1 ? 0 : i];
    StateVector state = initial_state != nullptr
                            ? *initial_state
                            : StateVector(circuit.num_qubits());
    Status status = RunInPlace(circuit, state, params);
    if (status.ok()) status = consume(i, std::move(state));
    statuses[i] = std::move(status);
  });
  for (Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

Result<std::vector<StateVector>> StateVectorSimulator::RunBatch(
    const std::vector<Circuit>& circuits,
    const std::vector<DVector>& params_list,
    const StateVector* initial_state) const {
  const size_t count = std::max(circuits.size(), params_list.size());
  std::vector<std::optional<StateVector>> slots(count);
  QDB_RETURN_IF_ERROR(RunBatchReduce(
      circuits, params_list, initial_state,
      [&slots](size_t i, StateVector&& state) {
        slots[i].emplace(std::move(state));
        return Status::OK();
      }));
  std::vector<StateVector> out;
  out.reserve(count);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

Result<std::vector<std::map<uint64_t, int>>> StateVectorSimulator::SampleBatch(
    const std::vector<Circuit>& circuits,
    const std::vector<DVector>& params_list, int shots, Rng& rng) const {
  if (shots < 0) {
    return Status::InvalidArgument("shots must be non-negative");
  }
  const size_t count = std::max(circuits.size(), params_list.size());
  // Split the caller's stream once per task, in batch order, before any
  // task runs: each task then owns a decorrelated generator whose seed does
  // not depend on scheduling, so counts are reproducible at any QDB_THREADS.
  std::vector<Rng> rngs;
  rngs.reserve(count);
  for (size_t i = 0; i < count; ++i) rngs.push_back(rng.Split());
  std::vector<std::map<uint64_t, int>> counts(count);
  QDB_RETURN_IF_ERROR(RunBatchReduce(
      circuits, params_list, nullptr,
      [&counts, &rngs, shots](size_t i, StateVector&& state) {
        counts[i] = state.SampleCounts(rngs[i], shots);
        return Status::OK();
      }));
  return counts;
}

Status StateVectorSimulator::ApplyGate(const Gate& gate, const DVector& angles,
                                       StateVector& state) const {
  StreamGate(gate, angles, state);
  return Status::OK();
}

namespace {

/// Basis-index masks of a Pauli string: X and Y flip their bits, Y and Z
/// sign them.
struct PauliMasks {
  uint64_t x = 0;  ///< Bits flipped by X or Y.
  uint64_t y = 0;
  uint64_t z = 0;
};

PauliMasks MasksOf(const PauliString& pauli) {
  const int n = pauli.num_qubits();
  PauliMasks m;
  for (int q = 0; q < n; ++q) {
    const uint64_t bit = uint64_t{1} << (n - 1 - q);
    switch (pauli.op(q)) {
      case PauliOp::kI:
        break;
      case PauliOp::kX:
        m.x |= bit;
        break;
      case PauliOp::kY:
        m.x |= bit;
        m.y |= bit;
        break;
      case PauliOp::kZ:
        m.z |= bit;
        break;
    }
  }
  return m;
}

}  // namespace

double Expectation(const StateVector& state, const PauliString& pauli) {
  QDB_CHECK_EQ(pauli.num_qubits(), state.num_qubits());
  const PauliMasks masks = MasksOf(pauli);
  const uint64_t xmask = masks.x;
  const uint64_t ymask = masks.y;
  const uint64_t zmask = masks.z;
  const double* re = state.reals();
  const double* im = state.imags();
  const uint64_t dim = state.dim();
  Complex acc(0.0, 0.0);
  const int y_count = __builtin_popcountll(ymask);
  // P|i⟩ = phase(i)|i ^ xmask⟩ with
  // phase(i) = i^{y_count} · (−1)^{popcount(i & ymask)} · (−1)^{popcount(i & zmask)}
  // (each Y contributes i·(−1)^{bit}; each Z contributes (−1)^{bit}).
  Complex i_power(1.0, 0.0);
  switch (y_count & 3) {
    case 0: i_power = {1.0, 0.0}; break;
    case 1: i_power = {0.0, 1.0}; break;
    case 2: i_power = {-1.0, 0.0}; break;
    case 3: i_power = {0.0, -1.0}; break;
  }
  auto chunk_sum = [&](uint64_t begin, uint64_t end) {
    // Plane arithmetic replicating conj(a[i^xmask]) * phase * a[i] with the
    // std::complex product order, minus its per-product Annex-G branches.
    double part_r = 0.0, part_i = 0.0;
    for (uint64_t i = begin; i < end; ++i) {
      const int sign_bits =
          (__builtin_popcountll(i & ymask) + __builtin_popcountll(i & zmask)) &
          1;
      const double flip = sign_bits ? -1.0 : 1.0;
      const double pr = i_power.real() * flip;
      const double pi = i_power.imag() * flip;
      const uint64_t j = i ^ xmask;
      const double t1r = re[j] * pr + im[j] * pi;   // (conj(a_j) * phase).re
      const double t1i = re[j] * pi - im[j] * pr;   // (conj(a_j) * phase).im
      part_r += t1r * re[i] - t1i * im[i];
      part_i += t1r * im[i] + t1i * re[i];
    }
    return Complex(part_r, part_i);
  };
  // Read-only fan-out; chunked accumulation above the threshold keeps the
  // combine order fixed for every thread count.
  acc = dim >= kParallelAmplitudeThreshold
            ? ParallelSum<Complex>(ThreadPool::Global(), 0, dim, chunk_sum)
            : chunk_sum(0, dim);
  return acc.real();
}

PreparedObservable::PreparedObservable(const PauliSum& observable)
    : num_qubits_(observable.num_qubits()) {
  // P|i⟩ = i^{#Y} · (−1)^{|i ∧ (Y|Z)|} · |i ^ X⟩, so the strings sharing an
  // X-mask sum to Σ_i conj(a[i ^ X]) · a[i] · W(i), where W has one Walsh
  // term c·i^{#Y} per string on its Y|Z mask. Groups keep first-appearance
  // order, so the combine order is a function of the observable alone.
  // Observables have few distinct X-masks (one for an Ising sum, about one
  // per qubit for a transverse field), so a linear search finds the group.
  for (const PauliTerm& term : observable.terms()) {
    const PauliMasks m = MasksOf(term.pauli);
    auto it = std::find_if(groups_.begin(), groups_.end(),
                           [&](const Group& g) { return g.xmask == m.x; });
    if (it == groups_.end()) it = groups_.insert(it, Group{m.x, {}, {}});
    Group& g = *it;
    const uint64_t sign_mask = m.y | m.z;
    const double c = term.coefficient;
    switch (__builtin_popcountll(m.y) & 3) {
      case 0: g.re.push_back({sign_mask, c}); break;
      case 1: g.im.push_back({sign_mask, c}); break;
      case 2: g.re.push_back({sign_mask, -c}); break;
      case 3: g.im.push_back({sign_mask, -c}); break;
    }
  }
}

double PreparedObservable::Expectation(const StateVector& state) const {
  QDB_CHECK_EQ(num_qubits_, state.num_qubits());
  const double* re = state.reals();
  const double* im = state.imags();
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  auto chunk_sum = [&](uint64_t begin, uint64_t end) {
    double part = 0.0;
    for (const Group& g : groups_) {
      part += WalshCorrelationRange(lvl, g.re, g.im, g.xmask, re, im, begin,
                                    end);
    }
    return part;
  };
  // One sweep and one fork-join for the whole observable; chunked
  // accumulation above the threshold keeps the combine order fixed for
  // every thread count.
  const uint64_t dim = state.dim();
  return dim >= kParallelAmplitudeThreshold
             ? ParallelSum<double>(ThreadPool::Global(), 0, dim, chunk_sum)
             : chunk_sum(0, dim);
}

double Expectation(const StateVector& state, const PauliSum& observable) {
  return PreparedObservable(observable).Expectation(state);
}

double ExpectationZ(const StateVector& state, int qubit) {
  return 1.0 - 2.0 * state.ProbabilityOfOne(qubit);
}

}  // namespace qdb
