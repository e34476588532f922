#include "kernel/quantum_kernel.h"

#include "circuit/gate.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "encoding/encodings.h"
#include "linalg/vector_ops.h"
#include "obs/obs.h"
#include "sim/compiled_circuit.h"

namespace qdb {

namespace {

/// Gram / cross-matrix construction counters: how many kernel entries were
/// computed and how many encoding circuits were simulated to get them
/// (factored product-state encodings run none).
struct KernelCounters {
  obs::Counter* circuit_runs = obs::GetCounter("kernel.circuit_runs");
  obs::Counter* entries = obs::GetCounter("kernel.entries_computed");
};

KernelCounters& Counters() {
  static KernelCounters counters;
  return counters;
}

/// From this width on a dense encoding circuit is compiled (privately)
/// before it runs; below it the circuit is streamed gate by gate. Each
/// circuit runs once, so fusion must earn the compile back within one run.
/// Compiled over streamed time per ZZ feature map (reps 2, one thread,
/// 4-core host): 3.0/2.3/1.7/1.2 at 2/4/8/10 qubits, 0.9/0.85 at 12/14.
constexpr int kCompileEncodingFromQubits = 12;

/// Folds a circuit of constant single-qubit gates onto |0…0⟩: qubit q's
/// 2-vector starts at |0⟩ and is multiplied by each of its gates'
/// GateMatrix in circuit order. Returns false, leaving `point` untouched,
/// when a gate acts on two or more qubits or an angle is symbolic; that
/// circuit takes the dense path.
bool FactorProductState(const Circuit& circuit, EncodedPoint& point) {
  if (circuit.num_parameters() > 0) return false;
  for (const Gate& gate : circuit.gates()) {
    if (GateArity(gate.type) != 1) return false;
  }
  const int n = circuit.num_qubits();
  CVector factors(2 * static_cast<size_t>(n), Complex(0.0, 0.0));
  for (int q = 0; q < n; ++q) factors[2 * q] = Complex(1.0, 0.0);
  static const DVector kNoParams;
  DVector angles;
  for (const Gate& gate : circuit.gates()) {
    angles.clear();
    for (const ParamExpr& p : gate.params) {
      angles.push_back(p.Evaluate(kNoParams));
    }
    const Matrix m = GateMatrix(gate.type, angles);
    const int q = gate.qubits[0];
    const Complex a0 = factors[2 * q];
    const Complex a1 = factors[2 * q + 1];
    factors[2 * q] = m(0, 0) * a0 + m(0, 1) * a1;
    factors[2 * q + 1] = m(1, 0) * a0 + m(1, 1) * a1;
  }
  point.num_qubits = n;
  point.factored = true;
  point.amplitudes = std::move(factors);
  return true;
}

}  // namespace

double EncodedFidelity(const EncodedPoint& a, const EncodedPoint& b) {
  QDB_CHECK_EQ(a.num_qubits, b.num_qubits);
  QDB_CHECK_EQ(a.factored, b.factored);
  if (a.factored) {
    // Π_q ⟨u_q|v_q⟩ in real arithmetic, qubits in order; each factor is
    // conj(u0)·v0 + conj(u1)·v1.
    double re = 1.0;
    double im = 0.0;
    for (size_t i = 0; i < a.amplitudes.size(); i += 2) {
      const Complex* u = &a.amplitudes[i];
      const Complex* v = &b.amplitudes[i];
      const double fr = u[0].real() * v[0].real() + u[0].imag() * v[0].imag() +
                        u[1].real() * v[1].real() + u[1].imag() * v[1].imag();
      const double fi = u[0].real() * v[0].imag() - u[0].imag() * v[0].real() +
                        u[1].real() * v[1].imag() - u[1].imag() * v[1].real();
      const double next_re = re * fr - im * fi;
      im = re * fi + im * fr;
      re = next_re;
    }
    return re * re + im * im;
  }
  return Fidelity(a.amplitudes, b.amplitudes);
}

FidelityQuantumKernel::FidelityQuantumKernel(EncodingFn encoder)
    : encoder_(std::move(encoder)) {
  QDB_CHECK(encoder_ != nullptr);
}

Status FidelityQuantumKernel::EncodeDense(const Circuit& circuit,
                                          EncodedPoint& point) const {
  StateVector state(circuit.num_qubits());
  if (circuit.num_qubits() >= kCompileEncodingFromQubits) {
    QDB_RETURN_IF_ERROR(CompiledCircuit::Compile(circuit).Execute(state));
  } else {
    QDB_RETURN_IF_ERROR(StateVectorSimulator().RunStreamed(circuit, state));
  }
  point.num_qubits = circuit.num_qubits();
  point.factored = false;
  point.amplitudes = state.ToAmplitudes();
  return Status::OK();
}

Result<EncodedPoint> FidelityQuantumKernel::EncodedState(
    const DVector& x) const {
  QDB_ASSIGN_OR_RETURN(std::vector<EncodedPoint> points, EncodedStates({x}));
  return std::move(points.front());
}

Result<double> FidelityQuantumKernel::Evaluate(const DVector& x,
                                               const DVector& y) const {
  QDB_ASSIGN_OR_RETURN(std::vector<EncodedPoint> points,
                       EncodedStates({x, y}));
  Counters().entries->Increment();
  return EncodedFidelity(points[0], points[1]);
}

Result<std::vector<EncodedPoint>> FidelityQuantumKernel::EncodedStates(
    const std::vector<DVector>& xs) const {
  std::vector<EncodedPoint> points(xs.size());
  std::vector<Circuit> dense;
  std::vector<size_t> dense_index;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i].empty()) {
      return Status::InvalidArgument("cannot encode an empty feature vector");
    }
    Circuit circuit = encoder_(xs[i]);
    if (!FactorProductState(circuit, points[i])) {
      dense.push_back(std::move(circuit));
      dense_index.push_back(i);
    }
  }
  std::vector<Status> statuses(dense.size());
  ThreadPool::Global().RunTasks(dense.size(), [&](size_t k) {
    statuses[k] = EncodeDense(dense[k], points[dense_index[k]]);
  });
  for (Status& status : statuses) QDB_RETURN_IF_ERROR(status);
  Counters().circuit_runs->Increment(static_cast<long>(dense.size()));
  for (const EncodedPoint& point : points) {
    if (point.num_qubits != points.front().num_qubits) {
      return Status::InvalidArgument("encoded states have different widths");
    }
    if (point.factored != points.front().factored) {
      return Status::InvalidArgument(
          "encoding circuits mix single-qubit-only and multi-qubit gate "
          "lists");
    }
  }
  return points;
}

Result<Matrix> FidelityQuantumKernel::GramMatrix(
    const std::vector<DVector>& xs) const {
  if (xs.empty()) {
    return Status::InvalidArgument("empty data set");
  }
  QDB_TRACE_SCOPE("FidelityQuantumKernel::GramMatrix", "kernel");
  QDB_ASSIGN_OR_RETURN(std::vector<EncodedPoint> points, EncodedStates(xs));
  Matrix gram(xs.size(), xs.size());
  // Row-wise fan-out: task i owns every (i, j) pair with j > i, so writes
  // are disjoint and the result is identical at any thread count.
  ThreadPool::Global().RunTasks(xs.size(), [&](size_t i) {
    gram(i, i) = Complex(1.0, 0.0);
    for (size_t j = i + 1; j < xs.size(); ++j) {
      const double k = EncodedFidelity(points[i], points[j]);
      gram(i, j) = Complex(k, 0.0);
      gram(j, i) = Complex(k, 0.0);
    }
  });
  // Off-diagonal upper triangle was computed; the diagonal is free.
  Counters().entries->Increment(
      static_cast<long>(xs.size() * (xs.size() - 1) / 2));
  return gram;
}

Result<Matrix> FidelityQuantumKernel::CrossMatrix(
    const std::vector<DVector>& test, const std::vector<DVector>& train) const {
  if (test.empty() || train.empty()) {
    return Status::InvalidArgument("empty data set");
  }
  QDB_TRACE_SCOPE("FidelityQuantumKernel::CrossMatrix", "kernel");
  // One batch over train ∪ test so every encoding circuit fans out together.
  std::vector<DVector> all = train;
  all.insert(all.end(), test.begin(), test.end());
  QDB_ASSIGN_OR_RETURN(std::vector<EncodedPoint> points, EncodedStates(all));
  Matrix cross(test.size(), train.size());
  ThreadPool::Global().RunTasks(test.size(), [&](size_t i) {
    const EncodedPoint& phi = points[train.size() + i];
    for (size_t j = 0; j < train.size(); ++j) {
      cross(i, j) = Complex(EncodedFidelity(phi, points[j]), 0.0);
    }
  });
  Counters().entries->Increment(
      static_cast<long>(test.size() * train.size()));
  return cross;
}

Result<Matrix> FidelityQuantumKernel::CrossFromEncoded(
    const std::vector<DVector>& test,
    const std::vector<EncodedPoint>& ref) const {
  if (test.empty() || ref.empty()) {
    return Status::InvalidArgument("empty data set");
  }
  QDB_TRACE_SCOPE("FidelityQuantumKernel::CrossFromEncoded", "kernel");
  QDB_ASSIGN_OR_RETURN(std::vector<EncodedPoint> points, EncodedStates(test));
  for (const EncodedPoint& r : ref) {
    if (r.num_qubits != points.front().num_qubits ||
        r.factored != points.front().factored) {
      return Status::InvalidArgument(
          "pre-encoded reference states have a different width or form than "
          "the encoded test points");
    }
  }
  Matrix cross(test.size(), ref.size());
  ThreadPool::Global().RunTasks(test.size(), [&](size_t i) {
    for (size_t j = 0; j < ref.size(); ++j) {
      cross(i, j) = Complex(EncodedFidelity(points[i], ref[j]), 0.0);
    }
  });
  Counters().entries->Increment(static_cast<long>(test.size() * ref.size()));
  return cross;
}

FidelityQuantumKernel MakeAngleKernel(double scale) {
  return FidelityQuantumKernel([scale](const DVector& x) {
    return AngleEncoding(x, RotationAxis::kY, scale);
  });
}

FidelityQuantumKernel MakeZZFeatureMapKernel(int reps) {
  return FidelityQuantumKernel(
      [reps](const DVector& x) { return ZZFeatureMap(x, reps); });
}

FidelityQuantumKernel MakeAmplitudeKernel() {
  return FidelityQuantumKernel([](const DVector& x) {
    auto circuit = AmplitudeEncoding(x);
    QDB_CHECK(circuit.ok()) << circuit.status().ToString();
    return std::move(circuit).value();
  });
}

}  // namespace qdb
