/// \file gate.h
/// \brief Gate vocabulary of the circuit IR: gate types, parameter
/// expressions, and dense matrix realizations.

#ifndef QDB_CIRCUIT_GATE_H_
#define QDB_CIRCUIT_GATE_H_

#include <array>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/types.h"

namespace qdb {

/// Kinds of gates the IR understands. Multi-controlled X/Z take an
/// arbitrary number of qubits (controls..., target).
enum class GateType {
  // 1-qubit fixed gates.
  kI,
  kX,
  kY,
  kZ,
  kH,
  kS,
  kSdg,
  kT,
  kTdg,
  kSX,
  // 1-qubit parameterized gates.
  kRX,
  kRY,
  kRZ,
  kPhase,  ///< P(λ) = diag(1, e^{iλ})
  kU,      ///< generic U(θ, φ, λ)
  // 2-qubit fixed gates.
  kCX,
  kCY,
  kCZ,
  kCH,
  kSwap,
  // 2-qubit parameterized gates.
  kCRX,
  kCRY,
  kCRZ,
  kCPhase,
  kRXX,  ///< exp(-i θ/2 X⊗X)
  kRYY,  ///< exp(-i θ/2 Y⊗Y)
  kRZZ,  ///< exp(-i θ/2 Z⊗Z)
  // 3-qubit fixed gates.
  kCCX,    ///< Toffoli
  kCSwap,  ///< Fredkin
  // Variadic gates: qubits = (controls..., target).
  kMCX,
  kMCZ,
};

/// \brief A parameter expression: value(θ) = multiplier·θ[index] + offset,
/// or a plain constant `offset` when index < 0.
///
/// This is the minimal symbolic layer needed for variational circuits and
/// data re-uploading encodings (scaled feature angles).
struct ParamExpr {
  int index = -1;
  double multiplier = 1.0;
  double offset = 0.0;

  /// A constant (non-trainable) angle.
  static ParamExpr Constant(double value) { return {-1, 0.0, value}; }
  /// The raw trainable parameter θ[i].
  static ParamExpr Variable(int i) { return {i, 1.0, 0.0}; }
  /// A scaled/shifted parameter: m·θ[i] + b.
  static ParamExpr Affine(int i, double m, double b) { return {i, m, b}; }

  bool is_constant() const { return index < 0; }

  /// Evaluates against a bound parameter vector.
  double Evaluate(const DVector& params) const;
};

/// \brief One gate instance: type, qubit operands, and angle expressions.
struct Gate {
  GateType type;
  std::vector<int> qubits;
  std::vector<ParamExpr> params;

  /// Returns the gate with all angle expressions negated — the adjoint for
  /// rotation-type gates (callers handle the discrete S/T adjoints).
  Gate WithNegatedParams() const;
};

/// Human-readable lower-case gate name (e.g. "cx", "rzz").
const char* GateTypeName(GateType type);

/// Number of qubit operands for fixed-arity gate types; 0 for variadic
/// (kMCX / kMCZ).
int GateArity(GateType type);

/// Number of angle parameters the gate type expects.
int GateParamCount(GateType type);

/// True for gates whose matrix is diagonal in the computational basis.
bool IsDiagonalGate(GateType type);

/// \brief Dense unitary matrix of the gate for bound angle values.
///
/// For fixed-arity gates returns the 2^k x 2^k matrix with the convention
/// that qubits[0] is the most significant bit of the matrix index. Variadic
/// kMCX/kMCZ are not supported here (the simulator applies them directly);
/// calling with those types aborts.
Matrix GateMatrix(GateType type, const DVector& angles);

/// \brief The row-major 2x2 entries of a single-qubit gate for bound angle
/// values, without a heap Matrix: GateMatrix's single-qubit matrices are
/// built from these entries, so both agree bit for bit.
std::array<Complex, 4> GateMatrix1Q(GateType type, const DVector& angles);

/// \brief Maps a gate type to its adjoint type for the discrete gates whose
/// inverse is a different type (S→Sdg, T→Tdg, and vice versa). Returns the
/// input type for self-inverse and rotation gates.
GateType AdjointType(GateType type);

}  // namespace qdb

#endif  // QDB_CIRCUIT_GATE_H_
