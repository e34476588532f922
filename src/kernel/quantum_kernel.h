/// \file quantum_kernel.h
/// \brief Fidelity quantum kernel k(x, y) = |⟨φ(x)|φ(y)⟩|² for an arbitrary
/// encoding circuit — feeds precomputed-kernel SVMs (the quantum-kernel
/// method of the tutorial's techniques section).

#ifndef QDB_KERNEL_QUANTUM_KERNEL_H_
#define QDB_KERNEL_QUANTUM_KERNEL_H_

#include <functional>
#include <vector>

#include "circuit/circuit.h"
#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/types.h"
#include "sim/statevector_simulator.h"

namespace qdb {

/// \brief One data point's encoded state |φ(x)⟩. An encoding circuit made
/// only of single-qubit gates prepares a product state, held factored as
/// one 2-vector per qubit; a circuit with any gate on two or more qubits
/// keeps the dense 2^n amplitudes.
struct EncodedPoint {
  int num_qubits = 0;
  /// True: `amplitudes` holds 2·num_qubits entries, (⟨0|u_q⟩, ⟨1|u_q⟩) for
  /// q = 0, 1, … in order. False: the 2^num_qubits state amplitudes.
  bool factored = false;
  CVector amplitudes;
};

/// |⟨a|b⟩|² for two encoded points of one width and one form:
/// |Π_q ⟨a_q|b_q⟩|², the product taken in qubit order, when both are
/// factored (O(n)); the dense overlap Fidelity (linalg/vector_ops.h) when
/// both are dense. Every kernel entry comes from here.
double EncodedFidelity(const EncodedPoint& a, const EncodedPoint& b);

/// \brief Computes fidelity-kernel entries by encoding every data point
/// once and overlapping the encoded states (the exact-simulation analogue
/// of the swap/inversion test on hardware).
///
/// The encoding circuit's structure picks the form of each point (see
/// EncodedPoint): angle encodings fold their gates onto |0⟩ per qubit and
/// never build a 2^n state, so an entry costs O(n); ZZ-feature-map and
/// amplitude encodings run on the state-vector simulator. All points of one
/// kernel must take the same form; an encoder whose gate list is
/// single-qubit for some points and entangling for others is rejected.
/// Dense encodings never go through the global CompilationCache: each
/// encoding circuit bakes one point's features into its angles, so a
/// cached program would never be replayed.
class FidelityQuantumKernel {
 public:
  /// Maps a feature vector to its encoding circuit; all circuits produced
  /// must share one width.
  using EncodingFn = std::function<Circuit(const DVector&)>;

  explicit FidelityQuantumKernel(EncodingFn encoder);

  /// |φ(x)⟩ in its encoded form.
  Result<EncodedPoint> EncodedState(const DVector& x) const;

  /// k(x, y) = |⟨φ(x)|φ(y)⟩|² ∈ [0, 1].
  Result<double> Evaluate(const DVector& x, const DVector& y) const;

  /// Symmetric Gram matrix K_ij = k(x_i, x_j); unit diagonal by
  /// construction. Each point is encoded exactly once, dense encodings in
  /// one parallel batch, and the O(m²) fidelity fill fans out row-wise
  /// across the shared ThreadPool.
  Result<Matrix> GramMatrix(const std::vector<DVector>& xs) const;

  /// Rectangular kernel K_ij = k(test_i, train_j) for prediction; batched
  /// and parallelized like GramMatrix.
  Result<Matrix> CrossMatrix(const std::vector<DVector>& test,
                             const std::vector<DVector>& train) const;

  /// Encodes every point (dense ones in one parallel batch); all points
  /// share one width and one form. Public so long-lived consumers (the
  /// serving layer's kernel models) can encode a fixed reference set once
  /// and reuse it across requests.
  Result<std::vector<EncodedPoint>> EncodedStates(
      const std::vector<DVector>& xs) const;

  /// CrossMatrix against pre-encoded reference points: encodes only `test`
  /// and fills K_ij = |⟨φ(test_i)|ref_j⟩|². This is the serving hot path —
  /// a request batch of B points costs B encodings instead of B + |ref| as
  /// the plain CrossMatrix does.
  Result<Matrix> CrossFromEncoded(const std::vector<DVector>& test,
                                  const std::vector<EncodedPoint>& ref) const;

 private:
  /// Simulates a dense encoding circuit from |0…0⟩ into `point`: streamed
  /// gate by gate below 12 qubits, where a one-shot compile costs more than
  /// fusion saves, and compiled and fused privately from 12 on.
  Status EncodeDense(const Circuit& circuit, EncodedPoint& point) const;

  EncodingFn encoder_;
};

/// Convenience factories for the standard encodings of E3/E13.
FidelityQuantumKernel MakeAngleKernel(double scale = 1.0);
FidelityQuantumKernel MakeZZFeatureMapKernel(int reps = 2);
FidelityQuantumKernel MakeAmplitudeKernel();

}  // namespace qdb

#endif  // QDB_KERNEL_QUANTUM_KERNEL_H_
