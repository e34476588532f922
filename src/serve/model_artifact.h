/// \file model_artifact.h
/// \brief Trained-model artifacts for the serving layer: a self-contained,
/// serializable description of everything needed to rebuild a model's
/// inference path — VQC/VQR parameters plus their ansatz fingerprint,
/// fidelity-kernel SVMs with their support vectors, and QUBO solver
/// configurations.
///
/// Artifacts are plain data. Turning one into an executable model happens
/// in servable.h; registering, versioning, and persisting them happens in
/// model_registry.h. Two on-disk formats share one failure contract —
/// corrupted files fail kInvalidArgument and files written by a future
/// incompatible format fail kUnimplemented, never a silently wrong model:
/// the line-oriented text format here (format-version header, %.17g
/// doubles, trailing FNV-1a checksum) and the sectioned binary format in
/// store/binary_format.h. LoadFromFile sniffs the magic and reads either;
/// SaveToFile writes text, store::SaveArtifact picks the format.

#ifndef QDB_SERVE_MODEL_ARTIFACT_H_
#define QDB_SERVE_MODEL_ARTIFACT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "classical/svm.h"
#include "common/result.h"
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

/// \brief A versioned, serializable trained-model artifact.
///
/// Only the fields relevant to `type` are meaningful; the rest keep their
/// defaults and are neither serialized nor compared.
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

  /// Serializes to the on-disk text format (format version 1).
  std::string Serialize() const;
  /// Parses the text format; corrupted input (bad magic, unknown keys,
  /// truncation, checksum mismatch) and unsupported format versions return
  /// a non-OK Status.
  static Result<ModelArtifact> Deserialize(const std::string& text);

  Status SaveToFile(const std::string& path) const;
  static Result<ModelArtifact> LoadFromFile(const std::string& path);
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
