// Dense reference oracle shared by the circuit, simulator, encoding and
// algorithm tests: the full 2^n x 2^n unitary of a small circuit.

#ifndef QDB_TESTS_CIRCUIT_UNITARY_H_
#define QDB_TESTS_CIRCUIT_UNITARY_H_

#include "circuit/circuit.h"
#include "common/result.h"
#include "common/strings.h"
#include "linalg/matrix.h"
#include "sim/statevector_simulator.h"

namespace qdb {

/// \brief Builds the 2^n x 2^n unitary of a circuit by streaming each
/// computational basis state through it gate by gate (no fusion), so it can
/// serve as an oracle for fused, compiled replay.
///
/// \param circuit the circuit (n ≤ 12 enforced: 16M complex entries).
/// \param params bound values for symbolic parameters.
inline Result<Matrix> CircuitUnitary(const Circuit& circuit,
                                     const DVector& params = {}) {
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

#endif  // QDB_TESTS_CIRCUIT_UNITARY_H_
