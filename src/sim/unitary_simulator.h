/// \file unitary_simulator.h
/// \brief Materializes the full unitary matrix of a circuit (small n only).
///
/// Used by tests (pass equivalence, gate identities) and by algorithm
/// analysis; never on simulator hot paths.

#ifndef QDB_SIM_UNITARY_SIMULATOR_H_
#define QDB_SIM_UNITARY_SIMULATOR_H_

#include "circuit/circuit.h"
#include "common/result.h"
#include "linalg/matrix.h"

namespace qdb {

/// \brief Builds the 2^n x 2^n unitary of a circuit by streaming each
/// computational basis state through it gate by gate (no fusion), so it can
/// serve as an oracle for fused, compiled replay.
///
/// \param circuit the circuit (n ≤ 12 enforced: 16M complex entries).
/// \param params bound values for symbolic parameters.
Result<Matrix> CircuitUnitary(const Circuit& circuit,
                              const DVector& params = {});

}  // namespace qdb

#endif  // QDB_SIM_UNITARY_SIMULATOR_H_
