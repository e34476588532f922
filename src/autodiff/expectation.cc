#include "autodiff/expectation.h"

#include <algorithm>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"

namespace qdb {

ExpectationFunction::ExpectationFunction(Circuit circuit, PauliSum observable)
    : circuit_(std::move(circuit)),
      observable_(std::move(observable)),
      prepared_(observable_) {
  QDB_CHECK_EQ(circuit_.num_qubits(), observable_.num_qubits());
  const int n = circuit_.num_qubits();
  std::vector<int>& support = cone_options_.support;
  for (int q = 0; q < n; ++q) {
    for (const PauliTerm& term : observable_.terms()) {
      if (term.pauli.op(q) != PauliOp::kI) {
        support.push_back(q);
        break;
      }
    }
  }
  if (support.empty() || static_cast<int>(support.size()) == n) return;
  // Program qubit j of a light-cone program is source qubit cone[j]; shifted
  // variants share the circuit's structure and so its cone.
  const std::vector<int> cone = LightCone(circuit_, support);
  const int k = static_cast<int>(cone.size());
  PauliSum relabelled(k);
  for (const PauliTerm& term : observable_.terms()) {
    PauliString pauli(k);
    for (int j = 0; j < k; ++j) pauli.set_op(j, term.pauli.op(cone[j]));
    relabelled.Add(term.coefficient, pauli);
  }
  cone_prepared_.emplace(relabelled);
}

void ExpectationFunction::set_initial_state(StateVector state) {
  QDB_CHECK_EQ(state.num_qubits(), circuit_.num_qubits());
  initial_state_ = std::move(state);
}

std::shared_ptr<const CompiledCircuit> ExpectationFunction::Program(
    const Circuit& circuit) const {
  return CompilationCache::Global().GetOrCompile(
      circuit, use_cone() ? cone_options_ : CompileOptions{});
}

Result<double> ExpectationFunction::Measure(const CompiledCircuit& program,
                                            const DVector& params) const {
  // With an initial state set the program is full width (use_cone() is
  // false), so the state fits it.
  StateVector state =
      initial_state_ ? *initial_state_ : StateVector(program.num_qubits());
  QDB_RETURN_IF_ERROR(program.Execute(state, params));
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  return (use_cone() ? *cone_prepared_ : prepared_).Expectation(state);
}

Result<DVector> ExpectationFunction::MeasureBatch(
    const std::vector<std::shared_ptr<const CompiledCircuit>>& programs,
    const std::vector<DVector>& params_list) const {
  if (programs.empty() || params_list.empty()) return DVector();
  const size_t count = std::max(programs.size(), params_list.size());
  // Fault point "sim.run": chaos runs fail or delay these batches like any
  // simulator batch.
  QDB_FAULT_POINT("sim.run");
  QDB_TRACE_SCOPE("ExpectationFunction::MeasureBatch", "sim");
  DVector values(count, 0.0);
  std::vector<Status> statuses(count);
  ThreadPool::Global().RunTasks(count, [&](size_t i) {
    Result<double> value =
        Measure(*programs[programs.size() == 1 ? 0 : i],
                params_list[params_list.size() == 1 ? 0 : i]);
    if (value.ok()) values[i] = value.value();
    statuses[i] = value.status();
  });
  for (const Status& status : statuses) QDB_RETURN_IF_ERROR(status);
  return values;
}

Result<double> ExpectationFunction::Evaluate(const DVector& params) const {
  return Measure(*Program(circuit_), params);
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
  return Measure(*Program(rebuilt), params);
}

Result<DVector> ExpectationFunction::EvaluateShiftBatch(
    const DVector& params, const std::vector<ShiftSpec>& shifts) const {
  // Every variant is compiled before the fan-out, so workers never queue
  // behind a compile holding the cache lock.
  std::vector<std::shared_ptr<const CompiledCircuit>> programs;
  programs.reserve(shifts.size());
  for (const ShiftSpec& spec : shifts) {
    QDB_ASSIGN_OR_RETURN(
        Circuit c, ShiftedCircuit(spec.gate_index, spec.slot, spec.delta));
    programs.push_back(Program(c));
  }
  return MeasureBatch(programs, {params});
}

Result<DVector> ExpectationFunction::EvaluateBatch(
    const std::vector<DVector>& params_list) const {
  return MeasureBatch({Program(circuit_)}, params_list);
}

}  // namespace qdb
