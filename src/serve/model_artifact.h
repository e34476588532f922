/// \file model_artifact.h
/// \brief Trained-model artifacts for the serving layer: a self-contained
/// description of everything needed to rebuild a model's inference path —
/// VQC/VQR parameters plus their ansatz fingerprint, fidelity-kernel SVMs
/// with their support vectors, and QUBO solver configurations.
///
/// Artifacts are plain data with no I/O. Turning one into an executable
/// model happens in servable.h; registering and versioning them happens in
/// model_registry.h; every byte on disk belongs to store/binary_format.h,
/// whose one format keeps this failure contract: a damaged file fails
/// kInvalidArgument and a valid file in a format this build does not read
/// fails kUnimplemented, never a silently wrong model.

#ifndef QDB_SERVE_MODEL_ARTIFACT_H_
#define QDB_SERVE_MODEL_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "classical/svm.h"
#include "linalg/types.h"
#include "variational/ansatz.h"
#include "variational/vqc.h"
#include "variational/vqr.h"

namespace qdb {
namespace serve {

/// What kind of trained model an artifact describes.
enum class ModelType {
  kVqcClassifier,  ///< Variational classifier: sign⟨Z_0⟩ over ±1 labels.
  kVqrRegressor,   ///< Variational regressor: ⟨Z_0⟩ ∈ [−1, 1].
  kKernelSvm,      ///< Precomputed-kernel SVM over fidelity-kernel rows.
  kQuboConfig,     ///< Annealer/solver configuration (key-value pairs).
};

const char* ModelTypeName(ModelType type);

/// Feature-map family of a kernel-SVM artifact.
enum class KernelEncodingKind {
  kAngle,         ///< RY(scale·x_i) per qubit.
  kZZFeatureMap,  ///< IQP-style ZZ feature map.
};

/// One support vector of a kernel SVM: `coeff` = α_i·y_i, so the decision
/// value is Σ_i coeff_i·k(sv_i, x) + bias.
struct SupportVector {
  double coeff = 0.0;
  DVector features;
};

/// \brief A versioned trained-model artifact.
///
/// Only the fields relevant to `type` are meaningful; the rest keep their
/// defaults.
struct ModelArtifact {
  ModelType type = ModelType::kVqcClassifier;
  std::string name;
  int version = 0;  ///< 0 = "assign the next version" at registration.
  int num_features = 0;

  // --- Variational models (kVqcClassifier / kVqrRegressor) -----------------
  VqcEncoding encoding = VqcEncoding::kAngle;  ///< VQC only.
  int ansatz_layers = 0;
  Entanglement entanglement = Entanglement::kLinear;  ///< VQC only.
  double feature_scale = 1.0;
  DVector params;
  /// FNV-1a hash of the StructuralFingerprint of the inference circuit the
  /// artifact's hyperparameters produce (with θ bound). Zero = unknown
  /// (filled in at registration); a nonzero mismatch at registration means
  /// the artifact was produced by an incompatible ansatz implementation and
  /// is rejected rather than served silently wrong.
  uint64_t circuit_fingerprint = 0;

  // --- Kernel SVM (kKernelSvm) ----------------------------------------------
  KernelEncodingKind kernel_encoding = KernelEncodingKind::kAngle;
  double kernel_scale = 1.0;  ///< Angle-encoding scale.
  int kernel_reps = 2;        ///< ZZ feature-map repetitions.
  double bias = 0.0;
  std::vector<SupportVector> support_vectors;

  // --- QUBO solver config (kQuboConfig) -------------------------------------
  /// Free-form ordered key-value pairs (solver name, sweeps, seeds, …).
  std::vector<std::pair<std::string, std::string>> config;
};

/// Builds a serving artifact from a trained classifier. The artifact's
/// circuit_fingerprint is stamped from the model's inference circuit.
ModelArtifact MakeVqcArtifact(const VqcClassifier& model, std::string name);

/// Builds a serving artifact from a trained regressor.
ModelArtifact MakeVqrArtifact(const VqrRegressor& model, std::string name);

/// Builds a kernel-SVM artifact from a precomputed-kernel Svm trained on
/// `train` (the Gram matrix rows the SVM saw must correspond to `train`'s
/// ordering). Only support vectors (α_i > 0) are retained.
ModelArtifact MakeKernelSvmArtifact(const Svm& svm, const Dataset& train,
                                    KernelEncodingKind encoding,
                                    double kernel_scale, int kernel_reps,
                                    std::string name);

/// Builds a QUBO solver-config artifact from ordered key-value pairs.
ModelArtifact MakeQuboConfigArtifact(
    std::vector<std::pair<std::string, std::string>> config, std::string name);

}  // namespace serve
}  // namespace qdb

#endif  // QDB_SERVE_MODEL_ARTIFACT_H_
