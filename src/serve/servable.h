/// \file servable.h
/// \brief Executable form of a model artifact: the inference circuit is
/// compiled once at load time and replayed for every request batch.
///
/// This is where "same model version ⇒ same compiled circuit" becomes
/// literal. For angle / re-uploading variational models the features enter
/// the circuit as affine parameter expressions (θ is baked in as constants),
/// so one CompiledCircuit serves every request and a batch of B inputs is B
/// parameter bindings of one fused kernel program — no per-request circuit
/// construction, no fingerprint hashing, no compilation-cache traffic.
/// Only ⟨Z_0⟩ is read, so the program is compiled to qubit 0's light cone
/// (CompileOptions::support = {0}): it holds the gates that can reach qubit
/// 0 and runs on their k qubits alone — 3 of 12 for a linear 2-layer VQC —
/// so a request replays a 2^k-amplitude state. The streamed fallback stays
/// full width. ZZ
/// feature maps are nonlinear in the features (RZZ angles are products), so
/// they fall back to per-request bound circuits through the batched
/// simulator. Kernel-SVM servables encode their support vectors once and
/// answer each request with one encoding plus m overlaps, instead of the
/// m + 1 encodings a from-scratch CrossMatrix would run. Angle-kernel
/// encodings are product states, held as one 2-vector per qubit, so a
/// request costs O(m·n) and builds no 2^n state; ZZ-feature-map kernels
/// hold and simulate dense 2^n-amplitude states.

#ifndef QDB_SERVE_SERVABLE_H_
#define QDB_SERVE_SERVABLE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "common/result.h"
#include "kernel/quantum_kernel.h"
#include "serve/model_artifact.h"
#include "sim/compiled_circuit.h"

namespace qdb {
namespace serve {

/// What a request asks of a model.
enum class RequestKind {
  kPredict,    ///< Score / label / decision value for one feature vector.
  kKernelRow,  ///< Kernel row k(sv_i, x) against the model's support set.
};

const char* RequestKindName(RequestKind kind);

/// One inference result. `value` is ⟨Z_0⟩ for variational models and the
/// SVM decision value for kernel models; `label` is its sign (±1, ties to
/// +1) for classifiers and 0 for regressors; `row` is filled for
/// kKernelRow requests only.
struct InferenceValue {
  double value = 0.0;
  int label = 0;
  DVector row;
};

/// \brief An immutable, executable model: artifact + whatever precomputed
/// state its inference path needs. Safe to share across threads; the
/// registry hands out shared_ptr<const ServableModel> so eviction never
/// invalidates in-flight requests.
class ServableModel {
 public:
  /// Validates the artifact (parameter counts, support-vector widths,
  /// circuit fingerprint) and precomputes the inference path: compiles the
  /// symbolic serving circuit, or encodes the support-vector states. A
  /// nonzero artifact fingerprint that does not match this build's circuit
  /// construction fails with kFailedPrecondition — an artifact from an
  /// incompatible ansatz implementation must not be served silently wrong.
  static Result<std::shared_ptr<const ServableModel>> Create(
      ModelArtifact artifact);

  const ModelArtifact& artifact() const { return artifact_; }
  const std::string& name() const { return artifact_.name; }
  int version() const { return artifact_.version; }
  ModelType type() const { return artifact_.type; }
  int num_features() const { return artifact_.num_features; }

  /// Cheap admission-time check that `input` is executable (width, kind
  /// supported by this model type) so malformed requests are rejected
  /// before they occupy queue space.
  Status ValidateInput(RequestKind kind, const DVector& input) const;

  /// Executes one homogeneous micro-batch; returns one value per input in
  /// order. Deterministic for a fixed input set at any thread count.
  Result<std::vector<InferenceValue>> RunBatch(
      RequestKind kind, const std::vector<DVector>& inputs) const;

  /// The compiled symbolic program — qubit 0's light cone, k qubits wide —
  /// or null for the ZZ per-request path and non-variational types.
  const CompiledCircuit* program() const { return program_.get(); }

  /// Number of RunBatch calls that reached the simulator — lets tests
  /// assert that cancelled or cached work never executed.
  long batch_executions() const {
    return batch_executions_.load(std::memory_order_relaxed);
  }

  /// Estimated resident heap footprint of this servable — the artifact's
  /// payload, the compiled program, and the pre-encoded support vectors as
  /// held: 2·num_features amplitudes each for angle kernels, 2^num_features
  /// for ZZ kernels (the dominant term of those models). The storage
  /// tier's memory budget charges this estimate; it deliberately counts
  /// owned allocations, not malloc overhead, so it is a stable lower
  /// bound.
  size_t ResidentBytes() const;

 private:
  ServableModel() = default;

  Result<std::vector<InferenceValue>> RunVariational(
      const std::vector<DVector>& inputs) const;
  /// Compiled symbolic-program path (program_ must be non-null).
  Status RunCompiled(const std::vector<DVector>& inputs,
                     std::vector<InferenceValue>& out) const;
  /// Per-request bound circuits, streamed gate by gate: the ZZ default, and
  /// the degradation fallback when the compiled path faults.
  Status RunInterpreted(const std::vector<DVector>& inputs,
                        std::vector<InferenceValue>& out) const;
  Result<std::vector<InferenceValue>> RunKernel(
      RequestKind kind, const std::vector<DVector>& inputs) const;

  ModelArtifact artifact_;
  /// Compiled symbolic-feature program (angle / re-uploading / VQR); null
  /// for the ZZ per-request-bind path and non-variational types.
  std::shared_ptr<const CompiledCircuit> program_;
  /// Kernel-SVM state: the encoder and the pre-encoded support vectors.
  std::optional<FidelityQuantumKernel> kernel_;
  std::vector<EncodedPoint> sv_states_;
  mutable std::atomic<long> batch_executions_{0};
};

/// The inference circuit with features symbolic at parameter indices
/// [0, num_features) and trained θ baked in as constants — executable for
/// any feature vector via one parameter binding. Fails for ZZ-encoded
/// models (feature products are not affine) and non-variational types.
Result<Circuit> BuildSymbolicInferenceCircuit(const ModelArtifact& artifact);

/// The inference circuit fully bound to a concrete feature vector — works
/// for every variational artifact, matching the training-time construction
/// gate for gate.
Result<Circuit> BuildBoundInferenceCircuit(const ModelArtifact& artifact,
                                           const DVector& x);

/// FNV-1a hash of the structural fingerprint of the artifact's inference
/// circuit (bound to a zero feature vector, so it covers encoding, layout,
/// and the trained parameters). Returns 0 for non-variational artifacts
/// and for artifacts whose circuit cannot be built.
uint64_t ArtifactCircuitFingerprint(const ModelArtifact& artifact);

}  // namespace serve
}  // namespace qdb

#endif  // QDB_SERVE_SERVABLE_H_
