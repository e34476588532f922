/// \file vqc.h
/// \brief Variational Quantum Classifier: data encoding + trainable ansatz,
/// read out as ⟨Z_0⟩, trained by parameter-shift gradients and Adam.

#ifndef QDB_VARIATIONAL_VQC_H_
#define QDB_VARIATIONAL_VQC_H_

#include <cstdint>

#include "circuit/circuit.h"
#include "classical/dataset.h"
#include "common/result.h"
#include "optimize/adam.h"
#include "sim/statevector_simulator.h"
#include "variational/ansatz.h"
#include "variational/gradient_method.h"

namespace qdb {

/// How classical features enter the circuit.
enum class VqcEncoding {
  kAngle,         ///< RY(x_i) per qubit, once.
  kZZFeatureMap,  ///< IQP-style ZZ feature map, then the ansatz.
  kReuploading,   ///< Angle encoding re-applied before every ansatz layer.
};

/// \brief VQC hyperparameters.
struct VqcOptions {
  VqcEncoding encoding = VqcEncoding::kAngle;
  int ansatz_layers = 2;
  Entanglement entanglement = Entanglement::kLinear;
  double feature_scale = 1.0;  ///< Multiplier on encoded feature angles.
  AdamOptions adam;
  GradientMethod gradient = GradientMethod::kAdjoint;
  uint64_t seed = 31;          ///< Initial-parameter draw.
  double init_scale = 0.3;     ///< θ₀ ~ U(−scale, scale).
};

/// \brief A trained variational classifier over ±1 labels.
///
/// The decision function is sign⟨Z_0⟩ of the state produced by
/// encode(x) · ansatz(θ); training minimizes the mean squared error between
/// ⟨Z_0⟩ ∈ [−1, 1] and the ±1 label.
class VqcClassifier {
 public:
  /// Trains on `data` (features should be pre-scaled to roughly [0, π]).
  static Result<VqcClassifier> Train(const Dataset& data,
                                     const VqcOptions& options = {});

  /// ⟨Z_0⟩ ∈ [−1, 1] for a feature vector.
  Result<double> Score(const DVector& x) const;

  /// sign(Score) as ±1 (0 maps to +1).
  Result<int> Predict(const DVector& x) const;

  const DVector& params() const { return params_; }
  /// The hyperparameters the model was trained with — together with
  /// num_features() and params() these fully determine the inference
  /// circuit, so serving artifacts can be built from a trained model.
  const VqcOptions& options() const { return options_; }
  int num_features() const { return num_features_; }
  const DVector& loss_history() const { return loss_history_; }
  /// ‖∇L‖₂ per training iteration (barren-plateau diagnostics).
  const DVector& gradient_norm_history() const {
    return gradient_norm_history_;
  }
  /// Circuit executions through the expectation path. Note: with the
  /// default adjoint gradient backend, gradient sweeps bypass this counter
  /// (they are two state passes, not circuit evaluations); under
  /// kParameterShift every shifted evaluation is counted.
  long circuit_evaluations() const { return circuit_evaluations_; }

  /// The full circuit (data bound, θ symbolic) for a given sample — exposed
  /// so benches can report depth/width.
  Circuit BuildCircuit(const DVector& x) const;

 private:
  VqcClassifier() = default;

  VqcOptions options_;
  int num_features_ = 0;
  DVector params_;
  DVector loss_history_;
  DVector gradient_norm_history_;
  long circuit_evaluations_ = 0;
};

}  // namespace qdb

#endif  // QDB_VARIATIONAL_VQC_H_
