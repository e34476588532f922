#include "sim/unitary_simulator.h"

#include "common/strings.h"
#include "sim/statevector_simulator.h"

namespace qdb {

Result<Matrix> CircuitUnitary(const Circuit& circuit, const DVector& params) {
  if (circuit.num_qubits() > 12) {
    return Status::InvalidArgument(
        StrCat("CircuitUnitary limited to 12 qubits, got ",
               circuit.num_qubits()));
  }
  const uint64_t dim = uint64_t{1} << circuit.num_qubits();
  Matrix u(dim, dim);
  // Columns are streamed gate by gate: no fusion, no product prefix, no
  // cached program. Streaming shares the compiler's lowering ladder, so this
  // is an oracle for fusion and replay, not for the lowering itself; that
  // independence comes from PerGateEquivalenceTest
  // (tests/sim_equivalence_test.cc), whose dense EmbedGate reference checks
  // the ladder gate by gate.
  const StateVectorSimulator sim;
  for (uint64_t col = 0; col < dim; ++col) {
    StateVector state = StateVector::BasisState(circuit.num_qubits(), col);
    QDB_RETURN_IF_ERROR(sim.RunStreamed(circuit, state, params));
    for (uint64_t row = 0; row < dim; ++row) u(row, col) = state.amplitude(row);
  }
  return u;
}

}  // namespace qdb
