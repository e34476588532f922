/// \file pauli.h
/// \brief Pauli-string observables and Hamiltonians (PauliSum).
///
/// A PauliString is a tensor product of single-qubit Paulis over n qubits;
/// a PauliSum is a real-weighted sum of strings — the observable/Hamiltonian
/// representation used by expectation values, VQE, and QAOA.

#ifndef QDB_OPS_PAULI_H_
#define QDB_OPS_PAULI_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/types.h"

namespace qdb {

/// Single-qubit Pauli operator label.
enum class PauliOp : uint8_t { kI = 0, kX = 1, kY = 2, kZ = 3 };

/// \brief A tensor product of single-qubit Paulis, e.g. "XIZY".
///
/// Qubit 0 is the first character. Identity-only strings are allowed.
class PauliString {
 public:
  /// All-identity string on `num_qubits` qubits.
  explicit PauliString(int num_qubits);

  /// Parses a label like "XIZZ" (characters I, X, Y, Z; qubit 0 first).
  static Result<PauliString> Parse(const std::string& label);

  /// Identity except `op` at `qubit`.
  static PauliString Single(int num_qubits, int qubit, PauliOp op);

  int num_qubits() const { return static_cast<int>(ops_.size()); }
  PauliOp op(int qubit) const;
  void set_op(int qubit, PauliOp op);

  /// Number of non-identity factors.
  int Weight() const;

  /// True if every factor is I or Z (diagonal in the computational basis).
  bool IsDiagonal() const;

  /// Label such as "XIZY".
  std::string ToString() const;

  /// Dense 2^n x 2^n matrix (qubit 0 = most significant index bit).
  Matrix ToMatrix() const;

  bool operator==(const PauliString& other) const { return ops_ == other.ops_; }
  bool operator<(const PauliString& other) const { return ops_ < other.ops_; }

 private:
  std::vector<PauliOp> ops_;
};

/// \brief One weighted term of a PauliSum.
struct PauliTerm {
  double coefficient;
  PauliString pauli;
};

/// \brief A Hermitian observable: Σ_k c_k · P_k with real c_k.
class PauliSum {
 public:
  /// The zero observable on `num_qubits` qubits.
  explicit PauliSum(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  const std::vector<PauliTerm>& terms() const { return terms_; }
  size_t size() const { return terms_.size(); }

  /// Adds `coefficient * pauli`; the string width must match.
  PauliSum& Add(double coefficient, const PauliString& pauli);

  /// Adds `coefficient * Parse(label)`; aborts on a malformed label (used
  /// for literals in code; data-driven callers should Parse themselves).
  PauliSum& Add(double coefficient, const std::string& label);

  PauliSum operator+(const PauliSum& other) const;
  PauliSum operator*(double scale) const;

  /// Combines duplicate strings and drops terms with |c| <= tol.
  PauliSum Simplified(double tol = 1e-12) const;

  /// True if every term is diagonal (I/Z only).
  bool IsDiagonal() const;

  /// Dense matrix realization (use only for small n).
  Matrix ToMatrix() const;

  /// Diagonal entries of the matrix realization for I/Z-only sums, computed
  /// by one fast Walsh–Hadamard transform in O(terms + n · 2^n) without
  /// materializing the matrix.
  Result<DVector> DiagonalValues() const;

  /// Rendering like "1.5*ZZ + -0.5*XI".
  std::string ToString() const;

 private:
  int num_qubits_;
  std::vector<PauliTerm> terms_;
};

/// Single-qubit Pauli matrix for the label.
Matrix PauliMatrix(PauliOp op);

}  // namespace qdb

#endif  // QDB_OPS_PAULI_H_
