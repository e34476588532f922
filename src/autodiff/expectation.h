/// \file expectation.h
/// \brief E(θ) = ⟨ψ(θ)|H|ψ(θ)⟩ as a differentiable objective — the loss
/// plumbing shared by VQE, QAOA, and the variational classifier.

#ifndef QDB_AUTODIFF_EXPECTATION_H_
#define QDB_AUTODIFF_EXPECTATION_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "circuit/circuit.h"
#include "common/result.h"
#include "ops/pauli.h"
#include "sim/compiled_circuit.h"
#include "sim/state_vector.h"
#include "sim/statevector_simulator.h"

namespace qdb {

/// \brief Evaluates (and differentiates, see parameter_shift.h) the
/// expectation of an observable after running a parameterized circuit.
///
/// The circuit starts from |0...0⟩ unless an initial state is set (e.g. an
/// amplitude-encoded data point). From |0...0⟩, an observable that leaves
/// some qubit untouched (⟨Z_0⟩ of a classifier, a local cost) is measured on
/// a program compiled to its support's light cone (CompileOptions::support):
/// the gates outside the cone and the qubits outside it are never simulated.
/// Evaluation counts are tracked so benches can report circuit-execution
/// budgets.
class ExpectationFunction {
 public:
  /// The observable width must match the circuit width.
  ExpectationFunction(Circuit circuit, PauliSum observable);

  // The atomic evaluation counter is not movable, so spell the moves out
  // (carrying the count over). Not thread-safe against concurrent use of
  // the moved-from object, like any move.
  ExpectationFunction(ExpectationFunction&& other) noexcept
      : circuit_(std::move(other.circuit_)),
        observable_(std::move(other.observable_)),
        prepared_(std::move(other.prepared_)),
        cone_options_(std::move(other.cone_options_)),
        cone_prepared_(std::move(other.cone_prepared_)),
        initial_state_(std::move(other.initial_state_)),
        evaluations_(other.evaluations_.load(std::memory_order_relaxed)) {}
  ExpectationFunction& operator=(ExpectationFunction&& other) noexcept {
    circuit_ = std::move(other.circuit_);
    observable_ = std::move(other.observable_);
    prepared_ = std::move(other.prepared_);
    cone_options_ = std::move(other.cone_options_);
    cone_prepared_ = std::move(other.cone_prepared_);
    initial_state_ = std::move(other.initial_state_);
    evaluations_.store(other.evaluations_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

  /// Starts runs from `state` instead of |0...0⟩ (width must match). Runs
  /// are then full width: the state need not be a product.
  void set_initial_state(StateVector state);

  const Circuit& circuit() const { return circuit_; }
  const PauliSum& observable() const { return observable_; }
  int num_parameters() const { return circuit_.num_parameters(); }

  /// E(θ). Fails if θ binds fewer parameters than the circuit references.
  Result<double> Evaluate(const DVector& params) const;

  /// E(θ) with one gate's angle expression additionally shifted: the
  /// `slot`-th angle of gate `gate_index` gets `delta` added to its offset.
  /// This is the primitive the parameter-shift rule is built on.
  Result<double> EvaluateWithShift(const DVector& params, size_t gate_index,
                                   size_t slot, double delta) const;

  /// One shifted evaluation of a batch: the `slot`-th angle of gate
  /// `gate_index` gets `delta` added to its offset.
  struct ShiftSpec {
    size_t gate_index = 0;
    size_t slot = 0;
    double delta = 0.0;
  };

  /// Evaluates every shifted circuit variant (all sharing `params`) as one
  /// parallel fan-out; entry i answers shifts[i].
  Result<DVector> EvaluateShiftBatch(const DVector& params,
                                     const std::vector<ShiftSpec>& shifts) const;

  /// Evaluates E(θ) for every parameter vector of the batch (one circuit,
  /// many θ) as one parallel fan-out; entry i answers params_list[i].
  Result<DVector> EvaluateBatch(const std::vector<DVector>& params_list) const;

  /// Total circuit executions performed through this object. Batched
  /// evaluations may update this from worker threads (the count is atomic).
  long evaluation_count() const {
    return evaluations_.load(std::memory_order_relaxed);
  }
  void reset_evaluation_count() {
    evaluations_.store(0, std::memory_order_relaxed);
  }

 private:
  /// True when runs compile to the observable's light cone: the support is
  /// not the whole register and runs start from |0...0⟩.
  bool use_cone() const { return cone_prepared_ && !initial_state_; }

  /// `circuit` (circuit_ or a shifted variant) compiled through the global
  /// cache: to the observable's light cone when use_cone(), whole otherwise.
  std::shared_ptr<const CompiledCircuit> Program(const Circuit& circuit) const;

  /// Runs `program` from the start state and measures the observable on it.
  Result<double> Measure(const CompiledCircuit& program,
                         const DVector& params) const;

  /// Entry i measures programs[i] on params_list[i] across the shared
  /// ThreadPool; a one-entry list is shared by every entry. Fails with the
  /// first (lowest-index) error.
  Result<DVector> MeasureBatch(
      const std::vector<std::shared_ptr<const CompiledCircuit>>& programs,
      const std::vector<DVector>& params_list) const;

  /// The circuit with one angle offset shifted; Circuit exposes no mutable
  /// gate access by design, so the variant is reconstructed gate by gate.
  Result<Circuit> ShiftedCircuit(size_t gate_index, size_t slot,
                                 double delta) const;

  Circuit circuit_;
  PauliSum observable_;
  PreparedObservable prepared_;  ///< observable_, grouped once.
  /// Compiles light-cone programs: support = the qubits observable_ acts
  /// on, ascending.
  CompileOptions cone_options_;
  /// observable_ relabelled onto the light cone's qubits; unset when the
  /// support is the whole register (or empty).
  std::optional<PreparedObservable> cone_prepared_;
  std::optional<StateVector> initial_state_;
  mutable std::atomic<long> evaluations_{0};
};

}  // namespace qdb

#endif  // QDB_AUTODIFF_EXPECTATION_H_
