/// \file noise.h
/// \brief Kraus channels and the NoiseModel used by the density-matrix
/// simulator — the stand-in for NISQ hardware noise.

#ifndef QDB_SIM_NOISE_H_
#define QDB_SIM_NOISE_H_

#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"

namespace qdb {

/// \brief A completely-positive trace-preserving map given by Kraus
/// operators {K_k}: ρ → Σ_k K_k ρ K_k†.
class KrausChannel {
 public:
  /// Validates Σ K†K = I within `tol` and wraps the operators. All Kraus
  /// matrices must be square with equal power-of-two dimension.
  static Result<KrausChannel> Create(std::vector<Matrix> kraus_ops,
                                     double tol = 1e-9);

  const std::vector<Matrix>& operators() const { return ops_; }

  /// Number of qubits the channel acts on (log2 of operator dimension).
  int num_qubits() const { return num_qubits_; }

 private:
  KrausChannel(std::vector<Matrix> ops, int num_qubits)
      : ops_(std::move(ops)), num_qubits_(num_qubits) {}

  std::vector<Matrix> ops_;
  int num_qubits_;
};

/// Depolarizing channel: with probability p replace the qubit state by I/2
/// (Kraus: √(1−3p/4)·I, √(p/4)·{X, Y, Z}). Requires p ∈ [0, 1].
Result<KrausChannel> DepolarizingChannel(double p);

/// Amplitude damping with decay probability gamma ∈ [0, 1] (T1-type decay).
Result<KrausChannel> AmplitudeDampingChannel(double gamma);

/// Phase damping with probability lambda ∈ [0, 1] (T2-type dephasing).
Result<KrausChannel> PhaseDampingChannel(double lambda);

/// Bit flip (X) with probability p.
Result<KrausChannel> BitFlipChannel(double p);

/// Phase flip (Z) with probability p.
Result<KrausChannel> PhaseFlipChannel(double p);

/// \brief Noise attached to circuit execution: a 1-qubit channel applied to
/// every operand qubit after each gate (with separate rates for 1-qubit and
/// multi-qubit gates), plus a symmetric readout flip probability.
struct NoiseModel {
  /// Channel applied to the operand of each 1-qubit gate (empty = none).
  std::vector<KrausChannel> after_1q;
  /// Channel applied to every operand of each ≥2-qubit gate (empty = none).
  std::vector<KrausChannel> after_2q;
  /// Probability that a measured bit is reported flipped.
  double readout_flip_probability = 0.0;

  /// Standard NISQ preset: depolarizing p1 after 1q gates, p2 after 2q
  /// gates, readout flip r.
  static Result<NoiseModel> Depolarizing(double p1, double p2, double r = 0.0);
};

}  // namespace qdb

#endif  // QDB_SIM_NOISE_H_
