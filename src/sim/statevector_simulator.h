/// \file statevector_simulator.h
/// \brief Executes circuits on StateVector and computes observable
/// expectation values — the main gate-model substrate of qdb.

#ifndef QDB_SIM_STATEVECTOR_SIMULATOR_H_
#define QDB_SIM_STATEVECTOR_SIMULATOR_H_

#include <functional>
#include <map>
#include <vector>

#include "circuit/circuit.h"
#include "common/result.h"
#include "common/rng.h"
#include "ops/pauli.h"
#include "sim/state_vector.h"
#include "sim/walsh.h"

namespace qdb {

/// \brief Exact (noise-free) state-vector execution of circuits.
///
/// Stateless; safe to share across calls. Every gate runs through the one
/// lowering and op → kernel dispatch in sim/compiled_circuit.h: circuits of
/// two or more gates are compiled and fused once through the
/// CompilationCache and replayed as a flat kernel program, and single gates
/// and one-shot circuits are streamed, each gate lowered and applied at
/// once.
class StateVectorSimulator {
 public:
  StateVectorSimulator() = default;

  /// Runs `circuit` from |0...0⟩ with `params` bound to the symbolic
  /// parameters. Fails if fewer parameters are supplied than referenced.
  Result<StateVector> Run(const Circuit& circuit,
                          const DVector& params = {}) const;

  /// Runs `circuit` from the given initial state (in place): cached fused
  /// replay from two gates up, streamed below that.
  Status RunInPlace(const Circuit& circuit, StateVector& state,
                    const DVector& params = {}) const;

  /// Runs `circuit` in place gate by gate through StreamGate: no fusion, no
  /// CompilationCache entry. For one-shot circuits whose program would
  /// never be replayed (bound inference circuits, kernel encodings, unitary
  /// columns). Amplitudes are bit-identical to an unfused compiled replay.
  Status RunStreamed(const Circuit& circuit, StateVector& state,
                     const DVector& params = {}) const;

  /// Applies a single bound gate to `state` (StreamGate).
  Status ApplyGate(const Gate& gate, const DVector& angles,
                   StateVector& state) const;

  // ---- Batched execution -----------------------------------------------------
  //
  // Independent circuit executions fan out across the shared ThreadPool
  // (kernel Gram matrices, parameter-shift gradients, shot batches).
  // Broadcast rule: the batch size is max(circuits.size(),
  // params_list.size()); a 1-element side is reused for every task, and an
  // empty params_list binds no parameters. Tasks run serially inside a
  // worker (nested kernels stay inline), so results match a serial loop
  // bit for bit.

  /// The fused batch primitive: runs each circuit on a worker and hands the
  /// final state to `consume(index, state)` on that worker instead of
  /// keeping all 2^n-amplitude states alive. `consume` must be thread-safe
  /// for distinct indices. Fails with the first (lowest-index) error.
  /// Declares fault point "sim.run" (fault/fault_injector.h), so chaos
  /// runs can fail or delay whole batches beneath the serving layer.
  Status RunBatchReduce(
      const std::vector<Circuit>& circuits,
      const std::vector<DVector>& params_list,
      const StateVector* initial_state,
      const std::function<Status(size_t, StateVector&&)>& consume) const;

  /// Runs every circuit of the batch and returns the final states in batch
  /// order.
  Result<std::vector<StateVector>> RunBatch(
      const std::vector<Circuit>& circuits,
      const std::vector<DVector>& params_list = {},
      const StateVector* initial_state = nullptr) const;

  /// Runs every circuit and samples `shots` outcomes from its final state.
  /// `rng` is split once per task in batch order *before* the fan-out, so
  /// counts are deterministic for a fixed seed regardless of QDB_THREADS.
  Result<std::vector<std::map<uint64_t, int>>> SampleBatch(
      const std::vector<Circuit>& circuits,
      const std::vector<DVector>& params_list, int shots, Rng& rng) const;
};

/// \brief ⟨ψ|P|ψ⟩ for a single Pauli string (real by Hermiticity).
double Expectation(const StateVector& state, const PauliString& pauli);

/// \brief A PauliSum grouped for batched expectations: the strings sharing
/// an X-mask become one Walsh expansion (sim/walsh.h), so ⟨ψ|H|ψ⟩ costs one
/// state sweep and one fork-join for the whole sum. Build it once for an
/// observable that is measured repeatedly (ExpectationFunction does).
class PreparedObservable {
 public:
  explicit PreparedObservable(const PauliSum& observable);

  /// ⟨ψ|H|ψ⟩; bit-identical at every thread count and SIMD level.
  double Expectation(const StateVector& state) const;

 private:
  struct Group {
    uint64_t xmask = 0;
    std::vector<WalshTerm> re;  ///< Strings with #Y ≡ 0 (mod 2).
    std::vector<WalshTerm> im;  ///< Strings with #Y ≡ 1 (mod 2).
  };

  int num_qubits_ = 0;
  std::vector<Group> groups_;
};

/// \brief ⟨ψ|H|ψ⟩ for a Pauli-sum observable (PreparedObservable for one
/// state).
double Expectation(const StateVector& state, const PauliSum& observable);

/// \brief ⟨ψ|Z_q|ψ⟩ convenience (= 1 − 2·P[q = 1]).
double ExpectationZ(const StateVector& state, int qubit);

}  // namespace qdb

#endif  // QDB_SIM_STATEVECTOR_SIMULATOR_H_
