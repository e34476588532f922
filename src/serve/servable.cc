#include "serve/servable.h"

#include <cmath>

#include "common/hash.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "encoding/encodings.h"
#include "fault/fault_injector.h"
#include "obs/labels.h"
#include "obs/obs.h"
#include "sim/statevector_simulator.h"
#include "variational/ansatz.h"

namespace qdb {
namespace serve {

namespace {

/// Expected trainable-parameter count for a variational artifact.
Result<int> ExpectedParamCount(const ModelArtifact& a) {
  const int n = a.num_features;
  switch (a.type) {
    case ModelType::kVqcClassifier:
      if (a.encoding == VqcEncoding::kReuploading) {
        return 2 * a.ansatz_layers * n;
      }
      return RealAmplitudesParamCount(n, a.ansatz_layers);
    case ModelType::kVqrRegressor:
      return 2 * a.ansatz_layers * n;
    default:
      return Status::InvalidArgument("artifact has no variational circuit");
  }
}

Status ValidateVariational(const ModelArtifact& a) {
  if (a.num_features < 1) {
    return Status::InvalidArgument("artifact has no features");
  }
  if (a.ansatz_layers < 1) {
    return Status::InvalidArgument("ansatz_layers must be >= 1");
  }
  QDB_ASSIGN_OR_RETURN(int expected, ExpectedParamCount(a));
  if (static_cast<int>(a.params.size()) != expected) {
    return Status::InvalidArgument(
        StrCat("artifact '", a.name, "' carries ", a.params.size(),
               " parameters but its circuit needs ", expected));
  }
  return Status::OK();
}

/// Appends the re-uploading layers with symbolic features: per layer
/// RY(scale·x_q), then the trained RY/RZ angles as constants, then the CX
/// chain — the symbolic twin of DataReuploadingCircuit.
void AppendSymbolicReuploading(Circuit& c, int layers, double feature_scale,
                               const DVector& params) {
  const int n = c.num_qubits();
  size_t p = 0;
  for (int layer = 0; layer < layers; ++layer) {
    for (int q = 0; q < n; ++q) {
      c.RY(q, ParamExpr::Affine(q, feature_scale, 0.0));
    }
    for (int q = 0; q < n; ++q) c.RY(q, params[p++]);
    for (int q = 0; q < n; ++q) c.RZ(q, params[p++]);
    if (n > 1) {
      for (int q = 0; q + 1 < n; ++q) c.CX(q, q + 1);
    }
  }
}

}  // namespace

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kPredict: return "predict";
    case RequestKind::kKernelRow: return "kernel_row";
  }
  return "predict";
}

Result<Circuit> BuildSymbolicInferenceCircuit(const ModelArtifact& a) {
  QDB_RETURN_IF_ERROR(ValidateVariational(a));
  const int n = a.num_features;
  Circuit c(n);
  if (a.type == ModelType::kVqrRegressor) {
    AppendSymbolicReuploading(c, a.ansatz_layers, a.feature_scale, a.params);
    return c;
  }
  switch (a.encoding) {
    case VqcEncoding::kAngle:
      // RY(feature_scale · x_q) per qubit, then the bound ansatz.
      for (int q = 0; q < n; ++q) {
        c.RY(q, ParamExpr::Affine(q, a.feature_scale, 0.0));
      }
      c.Append(RealAmplitudesAnsatz(n, a.ansatz_layers, a.entanglement)
                   .Bind(a.params));
      return c;
    case VqcEncoding::kReuploading:
      // The classifier pre-scales features before the shared re-uploading
      // circuit, so the affine multiplier carries the scale here too.
      AppendSymbolicReuploading(c, a.ansatz_layers, a.feature_scale, a.params);
      return c;
    case VqcEncoding::kZZFeatureMap:
      return Status::InvalidArgument(
          "ZZ feature maps are nonlinear in the features (RZZ angles are "
          "products), so no feature-symbolic circuit exists; serve via "
          "per-request bound circuits");
  }
  return Status::Internal("unhandled encoding");
}

Result<Circuit> BuildBoundInferenceCircuit(const ModelArtifact& a,
                                           const DVector& x) {
  QDB_RETURN_IF_ERROR(ValidateVariational(a));
  if (static_cast<int>(x.size()) != a.num_features) {
    return Status::InvalidArgument(
        StrCat("input has ", x.size(), " features, model '", a.name,
               "' expects ", a.num_features));
  }
  DVector scaled(x);
  for (auto& v : scaled) v *= a.feature_scale;
  const int n = a.num_features;
  Circuit c(n);
  if (a.type == ModelType::kVqrRegressor) {
    c.Append(DataReuploadingCircuit(x, a.ansatz_layers, a.feature_scale)
                 .Bind(a.params));
    return c;
  }
  switch (a.encoding) {
    case VqcEncoding::kAngle:
      c.Append(AngleEncoding(scaled, RotationAxis::kY));
      break;
    case VqcEncoding::kZZFeatureMap:
      c.Append(ZZFeatureMap(scaled, /*reps=*/2));
      break;
    case VqcEncoding::kReuploading:
      c.Append(DataReuploadingCircuit(scaled, a.ansatz_layers, 1.0)
                   .Bind(a.params));
      return c;
  }
  c.Append(RealAmplitudesAnsatz(n, a.ansatz_layers, a.entanglement)
               .Bind(a.params));
  return c;
}

uint64_t ArtifactCircuitFingerprint(const ModelArtifact& a) {
  if (a.type != ModelType::kVqcClassifier &&
      a.type != ModelType::kVqrRegressor) {
    return 0;
  }
  DVector zeros(static_cast<size_t>(a.num_features), 0.0);
  Result<Circuit> circuit = BuildBoundInferenceCircuit(a, zeros);
  if (!circuit.ok()) return 0;
  return Fnv1a64(circuit.value().StructuralFingerprint());
}

Result<std::shared_ptr<const ServableModel>> ServableModel::Create(
    ModelArtifact artifact) {
  auto servable = std::shared_ptr<ServableModel>(new ServableModel());
  switch (artifact.type) {
    case ModelType::kVqcClassifier:
    case ModelType::kVqrRegressor: {
      QDB_RETURN_IF_ERROR(ValidateVariational(artifact));
      const uint64_t fingerprint = ArtifactCircuitFingerprint(artifact);
      if (artifact.circuit_fingerprint != 0 &&
          artifact.circuit_fingerprint != fingerprint) {
        return Status::FailedPrecondition(StrFormat(
            "artifact '%s' was built against a different ansatz "
            "implementation (circuit fingerprint %016llx, this build "
            "produces %016llx); refusing to serve it",
            artifact.name.c_str(),
            static_cast<unsigned long long>(artifact.circuit_fingerprint),
            static_cast<unsigned long long>(fingerprint)));
      }
      artifact.circuit_fingerprint = fingerprint;
      const bool symbolic = !(artifact.type == ModelType::kVqcClassifier &&
                              artifact.encoding == VqcEncoding::kZZFeatureMap);
      if (symbolic) {
        QDB_ASSIGN_OR_RETURN(Circuit circuit,
                             BuildSymbolicInferenceCircuit(artifact));
        // Compiled privately, not through the global cache: the program
        // lives exactly as long as the servable and cannot be evicted out
        // from under a request burst. Only ⟨Z_0⟩ is read, so the program
        // holds qubit 0's light cone alone.
        servable->program_ = std::make_shared<const CompiledCircuit>(
            CompiledCircuit::Compile(circuit, CompileOptions{.support = {0}}));
      }
      break;
    }
    case ModelType::kKernelSvm: {
      if (artifact.num_features < 1) {
        return Status::InvalidArgument("artifact has no features");
      }
      if (artifact.support_vectors.empty()) {
        return Status::InvalidArgument(
            StrCat("kernel artifact '", artifact.name,
                   "' has no support vectors"));
      }
      for (const auto& sv : artifact.support_vectors) {
        if (static_cast<int>(sv.features.size()) != artifact.num_features) {
          return Status::InvalidArgument(
              StrCat("support vector width ", sv.features.size(),
                     " != num_features ", artifact.num_features));
        }
      }
      if (artifact.kernel_encoding == KernelEncodingKind::kZZFeatureMap &&
          artifact.kernel_reps < 1) {
        return Status::InvalidArgument("kernel_reps must be >= 1");
      }
      servable->kernel_ =
          artifact.kernel_encoding == KernelEncodingKind::kAngle
              ? MakeAngleKernel(artifact.kernel_scale)
              : MakeZZFeatureMapKernel(artifact.kernel_reps);
      std::vector<DVector> sv_features;
      sv_features.reserve(artifact.support_vectors.size());
      for (const auto& sv : artifact.support_vectors) {
        sv_features.push_back(sv.features);
      }
      QDB_ASSIGN_OR_RETURN(servable->sv_states_,
                           servable->kernel_->EncodedStates(sv_features));
      break;
    }
    case ModelType::kQuboConfig:
      break;  // Configuration-only; nothing to precompute.
  }
  servable->artifact_ = std::move(artifact);
  return std::shared_ptr<const ServableModel>(std::move(servable));
}

size_t ServableModel::ResidentBytes() const {
  size_t bytes = sizeof(*this);
  // Artifact payload.
  bytes += artifact_.name.capacity();
  bytes += artifact_.params.capacity() * sizeof(double);
  bytes += artifact_.support_vectors.capacity() * sizeof(SupportVector);
  for (const SupportVector& sv : artifact_.support_vectors) {
    bytes += sv.features.capacity() * sizeof(double);
  }
  for (const auto& [key, value] : artifact_.config) {
    bytes += sizeof(key) + sizeof(value) + key.capacity() + value.capacity();
  }
  // Compiled symbolic program (angle / re-uploading / VQR path).
  if (program_ != nullptr) {
    bytes += sizeof(CompiledCircuit);
    bytes += program_->ops().capacity() * sizeof(CompiledOp);
    for (const CompiledOp& op : program_->ops()) {
      bytes += op.m.rows() * op.m.cols() * sizeof(Complex);
      bytes += op.qubits.capacity() * sizeof(int);
      bytes += op.exprs.capacity() * sizeof(ParamExpr);
    }
  }
  // Pre-encoded support vectors as held: per-qubit 2-vectors for angle
  // kernels, 2^num_features amplitudes (the dominant term) for ZZ kernels.
  bytes += sv_states_.capacity() * sizeof(EncodedPoint);
  for (const EncodedPoint& point : sv_states_) {
    bytes += point.amplitudes.capacity() * sizeof(Complex);
  }
  return bytes;
}

Status ServableModel::ValidateInput(RequestKind kind,
                                    const DVector& input) const {
  if (artifact_.type == ModelType::kQuboConfig) {
    return Status::InvalidArgument(
        StrCat("model '", artifact_.name,
               "' is a solver configuration, not an inference model"));
  }
  if (kind == RequestKind::kKernelRow &&
      artifact_.type != ModelType::kKernelSvm) {
    return Status::InvalidArgument(
        StrCat("model '", artifact_.name, "' (", ModelTypeName(artifact_.type),
               ") cannot answer kernel_row requests"));
  }
  if (static_cast<int>(input.size()) != artifact_.num_features) {
    return Status::InvalidArgument(
        StrCat("input has ", input.size(), " features, model '",
               artifact_.name, "' expects ", artifact_.num_features));
  }
  return Status::OK();
}

Result<std::vector<InferenceValue>> ServableModel::RunBatch(
    RequestKind kind, const std::vector<DVector>& inputs) const {
  if (inputs.empty()) {
    return Status::InvalidArgument("empty inference batch");
  }
  for (const auto& x : inputs) {
    QDB_RETURN_IF_ERROR(ValidateInput(kind, x));
  }
  // Fault point "servable.run" (scoped by model name): fires before the
  // execution tally so tests can assert injected failures never reached
  // the simulator.
  QDB_FAULT_POINT_SCOPED("servable.run", artifact_.name);
  batch_executions_.fetch_add(1, std::memory_order_relaxed);
  switch (artifact_.type) {
    case ModelType::kVqcClassifier:
    case ModelType::kVqrRegressor:
      return RunVariational(inputs);
    case ModelType::kKernelSvm:
      return RunKernel(kind, inputs);
    case ModelType::kQuboConfig:
      return Status::InvalidArgument("qubo_config models are not executable");
  }
  return Status::Internal("unhandled model type");
}

Result<std::vector<InferenceValue>> ServableModel::RunVariational(
    const std::vector<DVector>& inputs) const {
  const bool classify = artifact_.type == ModelType::kVqcClassifier;
  std::vector<InferenceValue> out(inputs.size());
  bool use_compiled = program_ != nullptr;
  if (use_compiled && fault::FaultInjector::Global().enabled() &&
      fault::FaultInjector::Global()
          .Sample("servable.compiled_exec", artifact_.name)
          .has_value()) {
    use_compiled = false;  // Injected compiled-path fault: degrade below.
  }
  if (use_compiled) {
    Status compiled = RunCompiled(inputs, out);
    if (!compiled.ok()) use_compiled = false;  // Real fault: degrade too.
  }
  if (!use_compiled) {
    if (program_ != nullptr) {
      // The compiled path exists but faulted: serve the batch through the
      // streamed per-request circuits instead of failing it. (For ZZ models
      // the streamed path is the normal path, not degradation.)
      static obs::Counter* fallbacks =
          obs::GetCounter("serve.degraded.interpreted_fallbacks");
      static obs::CounterFamily* fallbacks_by_model =
          obs::MetricsRegistry::Global().GetCounterFamily(
              "serve.degraded.interpreted_fallbacks", {"model"});
      fallbacks->Increment();
      fallbacks_by_model->With(artifact_.name)->Increment();
      // A span (not just a counter): the degradation rung shows up in the
      // request's trace right where the latency went.
      QDB_TRACE_SCOPE("serve.degraded.interpreted_fallback", "serve");
      QDB_RETURN_IF_ERROR(RunInterpreted(inputs, out));
    } else {
      QDB_RETURN_IF_ERROR(RunInterpreted(inputs, out));
    }
  }
  for (auto& v : out) {
    v.label = classify ? (v.value < 0.0 ? -1 : 1) : 0;
  }
  return out;
}

Status ServableModel::RunCompiled(const std::vector<DVector>& inputs,
                                  std::vector<InferenceValue>& out) const {
  // One compiled program, B feature bindings: each task replays the fused
  // kernel sequence with the request's features as the parameter vector,
  // on the light cone's qubits; source qubit 0 is program qubit 0. A batch
  // fans out only when its work — inputs × ops × 2^k amplitude updates —
  // reaches the threshold at which one kernel op would go parallel. A
  // narrow cone's batch stays under it (the linear 2-layer VQC's 3-qubit,
  // 6-op program does 48 updates per input, a ~1 µs replay, less than a
  // fork-join); a whole-register cone (a circular 12-qubit VQC: 36 ops on
  // 2^12 amplitudes) fans out from two inputs on.
  std::vector<Status> statuses(inputs.size());
  const auto run = [&](size_t i) {
    StateVector state(program_->num_qubits());
    statuses[i] = program_->Execute(state, inputs[i]);
    if (!statuses[i].ok()) return;
    out[i].value = ExpectationZ(state, 0);
  };
  const uint64_t work = (inputs.size() * program_->num_ops())
                        << program_->num_qubits();
  if (work < kParallelAmplitudeThreshold) {
    for (size_t i = 0; i < inputs.size(); ++i) run(i);
  } else {
    ThreadPool::Global().RunTasks(inputs.size(), run);
  }
  for (const auto& status : statuses) QDB_RETURN_IF_ERROR(status);
  return Status::OK();
}

Status ServableModel::RunInterpreted(const std::vector<DVector>& inputs,
                                     std::vector<InferenceValue>& out) const {
  // Per-request bound circuits: the only option for ZZ feature maps (the
  // map is nonlinear in x) and the fallback when compiled execution
  // faults. Each bound circuit runs once, so it is streamed gate by gate
  // through the simulator's one lowering and dispatch rather than compiled:
  // a cached program per distinct input would never be replayed and would
  // evict programs that are. Amplitudes match an unfused compile bit for
  // bit. Fault point "sim.run" fails or delays the batch like any
  // simulator batch.
  std::vector<Circuit> circuits;
  circuits.reserve(inputs.size());
  for (const auto& x : inputs) {
    QDB_ASSIGN_OR_RETURN(Circuit c, BuildBoundInferenceCircuit(artifact_, x));
    circuits.push_back(std::move(c));
  }
  QDB_FAULT_POINT("sim.run");
  std::vector<Status> statuses(circuits.size());
  ThreadPool::Global().RunTasks(circuits.size(), [&](size_t i) {
    StateVector state(circuits[i].num_qubits());
    statuses[i] = StateVectorSimulator().RunStreamed(circuits[i], state);
    if (statuses[i].ok()) out[i].value = ExpectationZ(state, 0);
  });
  for (const auto& status : statuses) QDB_RETURN_IF_ERROR(status);
  return Status::OK();
}

Result<std::vector<InferenceValue>> ServableModel::RunKernel(
    RequestKind kind, const std::vector<DVector>& inputs) const {
  // One encoding per request point, overlapped against the support
  // vectors encoded at load time.
  QDB_ASSIGN_OR_RETURN(Matrix rows,
                       kernel_->CrossFromEncoded(inputs, sv_states_));
  const size_t m = sv_states_.size();
  std::vector<InferenceValue> out(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    double decision = artifact_.bias;
    for (size_t j = 0; j < m; ++j) {
      decision += artifact_.support_vectors[j].coeff * rows(i, j).real();
    }
    out[i].value = decision;
    out[i].label = decision < 0.0 ? -1 : 1;
    if (kind == RequestKind::kKernelRow) {
      out[i].row.resize(m);
      for (size_t j = 0; j < m; ++j) out[i].row[j] = rows(i, j).real();
    }
  }
  return out;
}

}  // namespace serve
}  // namespace qdb
