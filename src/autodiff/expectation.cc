#include "autodiff/expectation.h"

#include "common/strings.h"

namespace qdb {

ExpectationFunction::ExpectationFunction(Circuit circuit, PauliSum observable)
    : circuit_(std::move(circuit)),
      observable_(std::move(observable)),
      prepared_(observable_) {
  QDB_CHECK_EQ(circuit_.num_qubits(), observable_.num_qubits());
}

void ExpectationFunction::set_initial_state(StateVector state) {
  QDB_CHECK_EQ(state.num_qubits(), circuit_.num_qubits());
  initial_state_ = std::move(state);
}

Result<double> ExpectationFunction::RunAndMeasure(const Circuit& circuit,
                                                  const DVector& params) const {
  StateVector state =
      initial_state_ ? *initial_state_ : StateVector(circuit.num_qubits());
  QDB_RETURN_IF_ERROR(simulator_.RunInPlace(circuit, state, params));
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  return prepared_.Expectation(state);
}

Result<double> ExpectationFunction::Evaluate(const DVector& params) const {
  return RunAndMeasure(circuit_, params);
}

Result<Circuit> ExpectationFunction::ShiftedCircuit(size_t gate_index,
                                                    size_t slot,
                                                    double delta) const {
  if (gate_index >= circuit_.size()) {
    return Status::OutOfRange(StrCat("gate index ", gate_index, " out of range"));
  }
  Circuit rebuilt(circuit_.num_qubits());
  for (size_t i = 0; i < circuit_.gates().size(); ++i) {
    Gate g = circuit_.gates()[i];
    if (i == gate_index) {
      if (slot >= g.params.size()) {
        return Status::OutOfRange(StrCat("slot ", slot, " out of range"));
      }
      g.params[slot].offset += delta;
    }
    rebuilt.Append(g);
  }
  return rebuilt;
}

Result<double> ExpectationFunction::EvaluateWithShift(const DVector& params,
                                                      size_t gate_index,
                                                      size_t slot,
                                                      double delta) const {
  QDB_ASSIGN_OR_RETURN(Circuit rebuilt, ShiftedCircuit(gate_index, slot, delta));
  return RunAndMeasure(rebuilt, params);
}

Result<DVector> ExpectationFunction::EvaluateShiftBatch(
    const DVector& params, const std::vector<ShiftSpec>& shifts) const {
  std::vector<Circuit> circuits;
  circuits.reserve(shifts.size());
  for (const ShiftSpec& spec : shifts) {
    QDB_ASSIGN_OR_RETURN(
        Circuit c, ShiftedCircuit(spec.gate_index, spec.slot, spec.delta));
    circuits.push_back(std::move(c));
  }
  DVector values(shifts.size(), 0.0);
  const StateVector* initial = initial_state_ ? &*initial_state_ : nullptr;
  QDB_RETURN_IF_ERROR(simulator_.RunBatchReduce(
      circuits, {params}, initial,
      [this, &values](size_t i, StateVector&& state) {
        values[i] = prepared_.Expectation(state);
        return Status::OK();
      }));
  evaluations_.fetch_add(static_cast<long>(shifts.size()),
                         std::memory_order_relaxed);
  return values;
}

Result<DVector> ExpectationFunction::EvaluateBatch(
    const std::vector<DVector>& params_list) const {
  DVector values(params_list.size(), 0.0);
  const StateVector* initial = initial_state_ ? &*initial_state_ : nullptr;
  QDB_RETURN_IF_ERROR(simulator_.RunBatchReduce(
      {circuit_}, params_list, initial,
      [this, &values](size_t i, StateVector&& state) {
        values[i] = prepared_.Expectation(state);
        return Status::OK();
      }));
  evaluations_.fetch_add(static_cast<long>(params_list.size()),
                         std::memory_order_relaxed);
  return values;
}

}  // namespace qdb
