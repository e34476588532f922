// Streamed-vs-compiled equivalence for the compiled-circuit engine:
// without fusion the compiled program must replay the streamed gates' exact
// kernel sequence (bit-identical amplitudes); with fusion results agree to
// floating-point round-off and stay bit-identical across thread widths.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <cmath>
#include <thread>
#include <vector>

#include "circuit/circuit.h"
#include "circuit_unitary.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "db/join_order_qubo.h"
#include "db/query_graph.h"
#include "linalg/vector_ops.h"
#include "obs/obs.h"
#include "sim/compiled_circuit.h"
#include "sim/simd.h"
#include "sim/state_vector.h"
#include "sim/statevector_simulator.h"
#include "variational/qaoa.h"

namespace qdb {
namespace {

/// Sets the global pool width for one scope, restoring one lane on exit so
/// tests cannot leak parallelism into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { ThreadPool::SetGlobalThreads(n); }
  ~ScopedThreads() { ThreadPool::SetGlobalThreads(1); }
};

/// Runs `circuit` gate by gate through StreamGate (no fusion, no cache).
StateVector RunStreamed(const Circuit& circuit, const DVector& params = {}) {
  StateVector state(circuit.num_qubits());
  Status status = StateVectorSimulator().RunStreamed(circuit, state, params);
  QDB_CHECK(status.ok()) << status.ToString();
  return state;
}

/// Runs `circuit` through a freshly compiled program.
StateVector RunCompiled(const Circuit& circuit, const CompileOptions& options,
                        const DVector& params = {}) {
  const CompiledCircuit program = CompiledCircuit::Compile(circuit, options);
  StateVector state(circuit.num_qubits());
  Status status = program.Execute(state, params);
  QDB_CHECK(status.ok()) << status.ToString();
  return state;
}

void ExpectBitIdentical(const StateVector& a, const StateVector& b) {
  ASSERT_EQ(a.dim(), b.dim());
  for (uint64_t i = 0; i < a.dim(); ++i) {
    ASSERT_EQ(a.amplitude(i), b.amplitude(i)) << "amplitude " << i;
  }
}

void ExpectNear(const StateVector& a, const StateVector& b, double tol) {
  ASSERT_EQ(a.dim(), b.dim());
  for (uint64_t i = 0; i < a.dim(); ++i) {
    ASSERT_NEAR(std::abs(a.amplitude(i) - b.amplitude(i)), 0.0, tol)
        << "amplitude " << i;
  }
}

/// One small circuit per gate type in the IR, prefixed by a dense prelude so
/// every gate acts on a non-trivial superposition.
std::vector<Circuit> PerGateCircuits() {
  std::vector<Circuit> out;
  auto with_prelude = [](int n) {
    Circuit c(n);
    for (int q = 0; q < n; ++q) c.H(q).RY(q, 0.3 * (q + 1));
    return c;
  };
  // Fixed 1Q.
  for (GateType t : {GateType::kI, GateType::kX, GateType::kY, GateType::kZ,
                     GateType::kH, GateType::kS, GateType::kSdg, GateType::kT,
                     GateType::kTdg, GateType::kSX}) {
    Circuit c = with_prelude(2);
    c.Append(Gate{t, {1}, {}});
    out.push_back(std::move(c));
  }
  // Parameterized 1Q (constant angles here; symbolic covered separately).
  out.push_back(with_prelude(2).RX(0, 0.7));
  out.push_back(with_prelude(2).RY(0, -0.4));
  out.push_back(with_prelude(2).RZ(0, 1.1));
  out.push_back(with_prelude(2).P(0, 0.9));
  out.push_back(with_prelude(2).U(0, ParamExpr::Constant(0.3),
                                  ParamExpr::Constant(-0.8),
                                  ParamExpr::Constant(1.2)));
  // Fixed 2Q, both operand orders.
  for (GateType t : {GateType::kCX, GateType::kCY, GateType::kCZ,
                     GateType::kCH, GateType::kSwap}) {
    Circuit c = with_prelude(3);
    c.Append(Gate{t, {0, 2}, {}});
    c.Append(Gate{t, {2, 1}, {}});
    out.push_back(std::move(c));
  }
  // Parameterized 2Q.
  out.push_back(with_prelude(3).CRX(0, 2, 0.6));
  out.push_back(with_prelude(3).CRY(2, 0, -0.5));
  out.push_back(with_prelude(3).CRZ(1, 2, 0.8));
  out.push_back(with_prelude(3).CP(0, 1, -1.3));
  out.push_back(with_prelude(3).RXX(0, 2, 0.4));
  out.push_back(with_prelude(3).RYY(1, 2, -0.9));
  out.push_back(with_prelude(3).RZZ(0, 1, 1.5));
  // 3Q and variadic.
  out.push_back(with_prelude(3).CCX(0, 1, 2));
  out.push_back(with_prelude(3).CSwap(2, 0, 1));
  out.push_back(with_prelude(4).MCX({0, 1, 2}, 3));
  out.push_back(with_prelude(4).MCZ({3, 1}, 0));
  return out;
}

TEST(CompiledCircuitTest, EveryGateTypeBitIdenticalWithoutFusion) {
  for (const Circuit& c : PerGateCircuits()) {
    const StateVector streamed = RunStreamed(c);
    const StateVector compiled = RunCompiled(c, CompileOptions{.fuse = false});
    ExpectBitIdentical(streamed, compiled);
  }
}

TEST(CompiledCircuitTest, EveryGateTypeNearIdenticalWithFusion) {
  for (const Circuit& c : PerGateCircuits()) {
    const StateVector streamed = RunStreamed(c);
    const StateVector fused = RunCompiled(c, CompileOptions{.fuse = true});
    ExpectNear(streamed, fused, 1e-12);
  }
}

/// A random circuit mixing every kernel family, with symbolic parameters
/// when `symbolic` is set.
Circuit RandomMixedCircuit(int num_qubits, int gates, Rng& rng,
                           bool symbolic) {
  Circuit c(num_qubits);
  int next_param = 0;
  auto angle = [&]() -> ParamExpr {
    if (symbolic && rng.UniformInt(uint64_t{2}) == 0) {
      return ParamExpr::Affine(next_param++, rng.Uniform(0.5, 1.5),
                               rng.Uniform(-0.3, 0.3));
    }
    return ParamExpr::Constant(rng.Uniform(-1.5, 1.5));
  };
  for (int g = 0; g < gates; ++g) {
    const int q = static_cast<int>(rng.UniformInt(uint64_t(num_qubits)));
    int q2 = static_cast<int>(rng.UniformInt(uint64_t(num_qubits - 1)));
    if (q2 >= q) ++q2;
    switch (rng.UniformInt(uint64_t{12})) {
      case 0: c.H(q); break;
      case 1: c.X(q); break;
      case 2: c.T(q); break;
      case 3: c.RX(q, angle()); break;
      case 4: c.RY(q, angle()); break;
      case 5: c.RZ(q, angle()); break;
      case 6: c.CX(q, q2); break;
      case 7: c.CZ(q, q2); break;
      case 8: c.Swap(q, q2); break;
      case 9: c.CRY(q, q2, angle()); break;
      case 10: c.RZZ(q, q2, angle()); break;
      default: c.RXX(q, q2, angle()); break;
    }
  }
  return c;
}

TEST(CompiledCircuitTest, RandomCircuitsBitIdenticalWithoutFusion) {
  Rng rng(17);
  for (int n = 2; n <= 10; ++n) {
    const Circuit c = RandomMixedCircuit(n, 12 * n, rng, /*symbolic=*/false);
    ExpectBitIdentical(RunStreamed(c),
                       RunCompiled(c, CompileOptions{.fuse = false}));
  }
}

TEST(CompiledCircuitTest, RandomCircuitsNearIdenticalWithFusion) {
  Rng rng(29);
  for (int n = 2; n <= 10; ++n) {
    const Circuit c = RandomMixedCircuit(n, 12 * n, rng, /*symbolic=*/false);
    const CompiledCircuit program = CompiledCircuit::Compile(c);
    EXPECT_LT(program.num_ops(), c.size()) << "fusion should shrink " << n;
    StateVector state(n);
    ASSERT_TRUE(program.Execute(state).ok());
    ExpectNear(RunStreamed(c), state, 1e-12);
  }
}

TEST(CompiledCircuitTest, ParametricRebindingMatchesStreaming) {
  Rng rng(43);
  const Circuit c = RandomMixedCircuit(6, 60, rng, /*symbolic=*/true);
  ASSERT_GT(c.num_parameters(), 0);
  const CompiledCircuit unfused =
      CompiledCircuit::Compile(c, CompileOptions{.fuse = false});
  const CompiledCircuit fused = CompiledCircuit::Compile(c);
  // One compiled program, many parameter vectors: re-binding must track
  // streaming exactly (unfused) / to round-off (fused) on every binding.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng prng(seed);
    const DVector params =
        prng.UniformVector(c.num_parameters(), -2.0, 2.0);
    const StateVector streamed = RunStreamed(c, params);
    StateVector exact(6);
    ASSERT_TRUE(unfused.Execute(exact, params).ok());
    ExpectBitIdentical(streamed, exact);
    StateVector approx(6);
    ASSERT_TRUE(fused.Execute(approx, params).ok());
    ExpectNear(streamed, approx, 1e-12);
  }
}

TEST(CompiledCircuitTest, WideCircuitBitIdenticalAcrossThreadWidths) {
  // 15 qubits puts every kernel above kParallelAmplitudeThreshold; the
  // compiled program (fused) must preserve the serial-vs-parallel
  // bit-identity guarantee, and compiled-vs-streamed bit-identity
  // (unfused) must hold at every width.
  const int n = 15;
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.H(q).RY(q, 0.1 * (q + 1));
  for (int q = 0; q + 1 < n; ++q) c.CX(q, q + 1);
  for (int q = 0; q < n; ++q) c.RZ(q, 0.05 * (q + 3));
  c.RZZ(0, 7, 0.4).RXX(1, 8, 0.6).CRZ(4, 10, 0.9);

  ThreadPool::SetGlobalThreads(1);
  const StateVector serial_fused = RunCompiled(c, CompileOptions{.fuse = true});
  ExpectBitIdentical(RunStreamed(c),
                     RunCompiled(c, CompileOptions{.fuse = false}));

  ScopedThreads threads(4);
  const StateVector parallel_fused =
      RunCompiled(c, CompileOptions{.fuse = true});
  ExpectBitIdentical(serial_fused, parallel_fused);
  ExpectBitIdentical(RunStreamed(c),
                     RunCompiled(c, CompileOptions{.fuse = false}));
}

TEST(CompiledCircuitTest, FusionCollapsesKnownPatterns) {
  // A dense 1Q layer + CX ladder folds into a handful of 4x4 sweeps.
  Circuit c(4);
  for (int q = 0; q < 4; ++q) c.H(q).RY(q, 0.2).RZ(q, 0.3);
  c.CX(0, 1).CX(2, 3);
  const CompiledCircuit fused = CompiledCircuit::Compile(c);
  EXPECT_EQ(fused.num_ops(), 2u);  // One dense 4x4 per CX pair.
  EXPECT_EQ(fused.stats().lowered_ops, c.size());

  // Runs of diagonal gates on one operand pair stay one diagonal sweep.
  Circuit d(2);
  d.RZ(0, 0.1).RZ(1, 0.2).CZ(0, 1).RZZ(0, 1, 0.3).T(0).CZ(1, 0);
  const CompiledCircuit diag = CompiledCircuit::Compile(d);
  ASSERT_EQ(diag.num_ops(), 1u);
  EXPECT_EQ(diag.ops()[0].kind, CompiledOpKind::k2QDiag);

  // Parametric gates are barriers: nothing fuses across them.
  Circuit p(1);
  p.H(0).RX(0, ParamExpr::Variable(0)).H(0);
  EXPECT_EQ(CompiledCircuit::Compile(p).num_ops(), 3u);
}

/// The p=1 QAOA circuit of a seeded 4-relation clique join-order QUBO: 16
/// qubits, an H layer, 16 RZ + 120 RZZ cost gates, an RX mixer layer.
Circuit JoinOrderQaoaCircuit() {
  Rng rng(1);
  const JoinQueryGraph graph =
      RandomQuery(QueryShape::kClique, 4, rng).ValueOrDie();
  const Qaoa qaoa(JoinOrderQubo::Create(graph).ValueOrDie().qubo().ToIsing(),
                  1);
  return qaoa.circuit();
}

/// H layer, `length` parametric RZ/RZZ gates on seeded operands, RX layer.
Circuit DiagonalRunCircuit(int n, int length, uint64_t seed) {
  Rng rng(seed);
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.H(q);
  for (int k = 0; k < length; ++k) {
    const int a = static_cast<int>(rng.UniformInt(uint64_t(n)));
    const double scale = rng.Uniform(-2.0, 2.0);
    if (k % 3 == 0) {
      c.RZ(a, ParamExpr::Affine(0, scale, 0.1));
    } else {
      const int b =
          (a + 1 + static_cast<int>(rng.UniformInt(uint64_t(n - 1)))) % n;
      c.RZZ(a, b, ParamExpr::Affine(0, scale, 0.0));
    }
  }
  for (int q = 0; q < n; ++q) c.RX(q, ParamExpr::Affine(1, 2.0, 0.0));
  return c;
}

TEST(CompiledCircuitTest, JoinOrderQaoaCostLayerFusesIntoOneOp) {
  const Circuit c = JoinOrderQaoaCircuit();
  ASSERT_EQ(c.num_qubits(), 16);
  size_t diagonal_gates = 0;
  for (const Gate& g : c.gates()) diagonal_gates += IsDiagonalGate(g.type);
  ASSERT_EQ(diagonal_gates, 136u);

  const CompiledCircuit fused = CompiledCircuit::Compile(c);
  EXPECT_EQ(fused.stats().diagonal_runs, 1u);
  EXPECT_EQ(fused.stats().diagonal_run_gates, 136u);
  EXPECT_EQ(fused.num_ops(), 16u + 1u + 16u);  // H layer, one run, RX layer.
  size_t runs = 0;
  for (const CompiledOp& op : fused.ops()) {
    if (op.kind != CompiledOpKind::kDiagonalRun) continue;
    ++runs;
    EXPECT_EQ(op.fused_gates, 136);
    EXPECT_EQ(op.members.size(), 136u);
  }
  EXPECT_EQ(runs, 1u);

  // Unfused programs keep one op per gate.
  const CompiledCircuit unfused =
      CompiledCircuit::Compile(c, CompileOptions{.fuse = false});
  EXPECT_EQ(unfused.stats().diagonal_runs, 0u);
  EXPECT_EQ(unfused.num_ops(), c.size());
}

TEST(CompiledCircuitTest, DiagonalRunReplayMatchesStreaming) {
  const Circuit c = JoinOrderQaoaCircuit();
  const CompiledCircuit fused = CompiledCircuit::Compile(c);
  for (const DVector& params :
       {DVector{0.3, 0.4}, DVector{-1.7, 2.9}, DVector{0.01, -0.5}}) {
    StateVector state(c.num_qubits());
    ASSERT_TRUE(fused.Execute(state, params).ok());
    ExpectNear(RunStreamed(c, params), state, 1e-12);
  }
  // 17 qubits: the run replays inside cache blocks.
  const Circuit wide = DiagonalRunCircuit(17, 40, 3);
  const CompiledCircuit wide_fused = CompiledCircuit::Compile(wide);
  ASSERT_EQ(wide_fused.stats().diagonal_runs, 1u);
  StateVector state(17);
  ASSERT_TRUE(wide_fused.Execute(state, {0.7, -0.2}).ok());
  ExpectNear(RunStreamed(wide, {0.7, -0.2}), state, 1e-12);
}

TEST(CompiledCircuitTest, DiagonalRunBitIdenticalAcrossThreadsAndSimd) {
  // 16 qubits replays the run over the whole state, 17 block by block; each
  // must give the same bits at every pool width and SIMD level.
  struct RestoreDispatch {
    ~RestoreDispatch() { simd::ResetSimdLevel(); }
  } restore;
  for (const Circuit& c :
       {JoinOrderQaoaCircuit(), DiagonalRunCircuit(17, 40, 3)}) {
    const CompiledCircuit fused = CompiledCircuit::Compile(c);
    const DVector params = {0.45, 1.3};
    simd::SetActiveSimdLevel(simd::SimdLevel::kScalar);
    ThreadPool::SetGlobalThreads(1);
    StateVector baseline(c.num_qubits());
    ASSERT_TRUE(fused.Execute(baseline, params).ok());

    std::vector<std::pair<simd::SimdLevel, int>> configs = {
        {simd::SimdLevel::kScalar, 4}};
    if (simd::SetActiveSimdLevel(simd::SimdLevel::kAvx2)) {
      configs.push_back({simd::SimdLevel::kAvx2, 1});
      configs.push_back({simd::SimdLevel::kAvx2, 4});
    }
    for (const auto& [level, threads] : configs) {
      ASSERT_TRUE(simd::SetActiveSimdLevel(level));
      ScopedThreads scoped(threads);
      StateVector other(c.num_qubits());
      ASSERT_TRUE(fused.Execute(other, params).ok());
      ExpectBitIdentical(baseline, other);
    }
  }
}

TEST(CompiledCircuitTest, DiagonalRunsShorterThanThresholdStayPerGate) {
  const int below = static_cast<int>(kMinDiagonalRunOps) - 1;
  const Circuit short_run = DiagonalRunCircuit(4, below, 11);
  const CompiledCircuit kept = CompiledCircuit::Compile(short_run);
  EXPECT_EQ(kept.stats().diagonal_runs, 0u);
  EXPECT_EQ(kept.num_ops(), short_run.size());

  const Circuit long_run = DiagonalRunCircuit(4, below + 1, 11);
  const CompiledCircuit collapsed = CompiledCircuit::Compile(long_run);
  EXPECT_EQ(collapsed.stats().diagonal_runs, 1u);
  EXPECT_EQ(collapsed.num_ops(), long_run.size() - below);
  ExpectNear(RunStreamed(long_run, {0.8, 0.3}),
             RunCompiled(long_run, CompileOptions{}, {0.8, 0.3}), 1e-12);
}

/// A leading run of single-qubit gates, constant and parametric, with
/// qubits repeating (the product prefix), then entangling gates and more
/// single-qubit gates.
Circuit ProductPrefixCircuit(int n) {
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.H(q);
  for (int q = 0; q < n; ++q) c.RY(q, ParamExpr::Affine(0, 0.7 + 0.1 * q, 0.2));
  c.RZ(1, ParamExpr::Variable(1)).T(2).RX(0, 0.4).S(n - 1);
  c.RZ(0, ParamExpr::Affine(1, -1.5, 0.3));
  for (int q = 0; q + 1 < n; ++q) c.CX(q, q + 1);
  c.RZZ(0, n - 1, ParamExpr::Variable(0));
  for (int q = 0; q < n; ++q) c.RX(q, ParamExpr::Affine(1, 2.0, 0.0));
  return c;
}

TEST(CompiledCircuitTest, ProductPrefixOnZeroStateMatchesUnitaryOracle) {
  const int n = 6;
  const Circuit c = ProductPrefixCircuit(n);
  const CompiledCircuit fused = CompiledCircuit::Compile(c);
  // The leading single-qubit gates fuse per qubit where constant; the
  // parametric ones stay separate, and all of them form the prefix.
  ASSERT_GT(fused.stats().product_prefix_ops, static_cast<size_t>(n));
  EXPECT_EQ(fused.ops()[fused.stats().product_prefix_ops].kind,
            CompiledOpKind::kControlled1Q);
  EXPECT_EQ(CompiledCircuit::Compile(c, CompileOptions{.fuse = false})
                .stats().product_prefix_ops,
            0u);

  obs::Counter* product_states = obs::GetCounter("sim.gates.product_state");
  for (const DVector& params : {DVector{0.3, 0.4}, DVector{-2.1, 1.7}}) {
    const Matrix u = CircuitUnitary(c, params).ValueOrDie();
    const long before = product_states->Value();
    StateVector state(n);
    ASSERT_TRUE(fused.Execute(state, params).ok());
    EXPECT_EQ(product_states->Value(), before + 1);
    for (uint64_t i = 0; i < state.dim(); ++i) {
      ASSERT_NEAR(std::abs(state.amplitude(i) - u(i, 0)), 0.0, 1e-12)
          << "amplitude " << i;
    }
  }
}

TEST(CompiledCircuitTest, ProductPrefixOnOtherStatesReplaysItsOps) {
  const int n = 6;
  const Circuit c = ProductPrefixCircuit(n);
  const CompiledCircuit fused = CompiledCircuit::Compile(c);
  const CompiledCircuit unfused =
      CompiledCircuit::Compile(c, CompileOptions{.fuse = false});
  obs::Counter* product_states = obs::GetCounter("sim.gates.product_state");
  Rng rng(17);
  CVector amps(uint64_t{1} << n);
  for (Complex& a : amps) a = Complex(rng.Normal(), rng.Normal());
  Normalize(amps);
  // A basis state other than |0…0⟩, a dense state, |0…0⟩ with a negative
  // zero and |0…0⟩ plus an imaginary tail: none may take the product-state
  // path.
  StateVector signed_zero(n);
  signed_zero.set_amplitude(3, Complex(-0.0, 0.0));
  StateVector imaginary_tail(n);
  imaginary_tail.set_amplitude(5, Complex(0.0, 1e-3));
  for (const StateVector& input :
       {StateVector::BasisState(n, 5),
        StateVector::FromAmplitudes(amps).ValueOrDie(), signed_zero,
        imaginary_tail}) {
    const DVector params = {0.9, -0.6};
    StateVector expected = input;
    ASSERT_TRUE(unfused.Execute(expected, params).ok());
    const long before = product_states->Value();
    StateVector state = input;
    ASSERT_TRUE(fused.Execute(state, params).ok());
    EXPECT_EQ(product_states->Value(), before);
    ExpectNear(expected, state, 1e-12);
  }
}

// ---- Light cones -------------------------------------------------------------

/// A random circuit over every gate type of the IR: fixed and parametric
/// (symbolic) 1Q and 2Q gates, CCX, CSwap, and MCX/MCZ with 1–3 controls.
Circuit RandomEveryGateCircuit(int n, int gates, Rng& rng) {
  static constexpr GateType kTypes[] = {
      GateType::kI,     GateType::kX,     GateType::kY,      GateType::kZ,
      GateType::kH,     GateType::kS,     GateType::kSdg,    GateType::kT,
      GateType::kTdg,   GateType::kSX,    GateType::kRX,     GateType::kRY,
      GateType::kRZ,    GateType::kPhase, GateType::kU,      GateType::kCX,
      GateType::kCY,    GateType::kCZ,    GateType::kCH,     GateType::kSwap,
      GateType::kCRX,   GateType::kCRY,   GateType::kCRZ,    GateType::kCPhase,
      GateType::kRXX,   GateType::kRYY,   GateType::kRZZ,    GateType::kCCX,
      GateType::kCSwap, GateType::kMCX,   GateType::kMCZ};
  Circuit c(n);
  int next_param = 0;
  for (int g = 0; g < gates; ++g) {
    const GateType type = kTypes[rng.UniformInt(uint64_t{std::size(kTypes)})];
    int arity = GateArity(type);
    if (arity == 0) {  // MCX/MCZ: 1–3 controls plus the target.
      arity = 2 + static_cast<int>(rng.UniformInt(uint64_t(std::min(3, n - 1))));
    }
    if (arity > n) continue;
    std::vector<int> qubits(static_cast<size_t>(n));
    for (int q = 0; q < n; ++q) qubits[static_cast<size_t>(q)] = q;
    for (int i = 0; i < arity; ++i) {  // A random arity-prefix permutation.
      const int j = i + static_cast<int>(rng.UniformInt(uint64_t(n - i)));
      std::swap(qubits[static_cast<size_t>(i)], qubits[static_cast<size_t>(j)]);
    }
    qubits.resize(static_cast<size_t>(arity));
    std::vector<ParamExpr> params;
    for (int k = 0; k < GateParamCount(type); ++k) {
      params.push_back(rng.UniformInt(uint64_t{2}) == 0
                           ? ParamExpr::Affine(next_param++,
                                               rng.Uniform(0.5, 1.5),
                                               rng.Uniform(-0.3, 0.3))
                           : ParamExpr::Constant(rng.Uniform(-1.5, 1.5)));
    }
    c.Append(Gate{type, std::move(qubits), std::move(params)});
  }
  return c;
}

/// A random Pauli sum acting on exactly the qubits of `support`.
PauliSum RandomObservableOn(int n, const std::vector<int>& support, Rng& rng) {
  static constexpr PauliOp kOps[] = {PauliOp::kX, PauliOp::kY, PauliOp::kZ};
  PauliSum obs(n);
  for (int t = 0; t < 3; ++t) {
    PauliString pauli(n);
    for (int q : support) pauli.set_op(q, kOps[rng.UniformInt(uint64_t{3})]);
    obs.Add(rng.Uniform(-1.0, 1.0), pauli);
  }
  return obs;
}

/// `obs` restricted to a program's qubits: program qubit j is source qubit
/// source_qubits[j].
PauliSum RelabelOnto(const PauliSum& obs, const std::vector<int>& source_qubits) {
  const int k = static_cast<int>(source_qubits.size());
  PauliSum out(k);
  for (const PauliTerm& term : obs.terms()) {
    PauliString pauli(k);
    for (int j = 0; j < k; ++j) {
      pauli.set_op(j, term.pauli.op(source_qubits[static_cast<size_t>(j)]));
    }
    out.Add(term.coefficient, pauli);
  }
  return out;
}

TEST(CompiledCircuitTest, LightConeProgramsMatchFullWidthExpectations) {
  Rng rng(71);
  int pruned_programs = 0;
  for (int trial = 0; trial < 160; ++trial) {
    const int n = 3 + trial % 8;
    const Circuit c = RandomEveryGateCircuit(n, 2 * n, rng);
    std::vector<int> support;
    const int width = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    for (int q = 0; q < n; ++q) {
      if (static_cast<int>(support.size()) < width &&
          rng.UniformInt(uint64_t(n)) < uint64_t(width)) {
        support.push_back(q);
      }
    }
    if (support.empty()) support.push_back(n - 1);
    const PauliSum obs = RandomObservableOn(n, support, rng);
    const DVector params =
        rng.UniformVector(c.num_parameters(), -2.0, 2.0);
    const double full = Expectation(RunStreamed(c, params), obs);
    for (bool fuse : {false, true}) {
      const CompiledCircuit program = CompiledCircuit::Compile(
          c, CompileOptions{.fuse = fuse, .support = support});
      ASSERT_EQ(static_cast<int>(program.source_qubits().size()),
                program.num_qubits());
      ASSERT_EQ(program.stats().source_gates + program.stats().pruned_gates,
                c.size());
      pruned_programs += fuse && program.num_qubits() < n;
      StateVector state(program.num_qubits());
      ASSERT_TRUE(program.Execute(state, params).ok());
      EXPECT_NEAR(Expectation(state, RelabelOnto(obs, program.source_qubits())),
                  full, 1e-12)
          << "trial " << trial << " n=" << n << " fuse=" << fuse;
    }
  }
  EXPECT_GT(pruned_programs, 40) << "too few cones narrower than the register";
}

TEST(CompiledCircuitTest, LightConeOfKnownCircuit) {
  // Backwards from qubit 0: RY(0), CX(0,1) → {0,1}; CX(1,2) → {0,1,2};
  // RZ(3) and CX(3,4) never meet the cone.
  Circuit c(5);
  c.H(0).H(1).CX(1, 2).RZ(3, 0.4).CX(0, 1).CX(3, 4).RY(0, 0.2).X(2);
  std::vector<bool> keep;
  EXPECT_EQ(LightCone(c, {0}, &keep), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(keep, (std::vector<bool>{true, true, true, false, true, false,
                                     true, false}));
  const CompiledCircuit program =
      CompiledCircuit::Compile(c, CompileOptions{.fuse = false, .support = {0}});
  EXPECT_EQ(program.num_qubits(), 3);
  EXPECT_EQ(program.stats().source_gates, 5u);
  EXPECT_EQ(program.stats().pruned_gates, 3u);
  // Relabelled: the cone's qubits {0,1,2} keep their order.
  ASSERT_EQ(program.num_ops(), 5u);
  EXPECT_EQ(program.ops()[2].q0, 1);
  EXPECT_EQ(program.ops()[2].q1, 2);
  // Support {3} keeps RZ(3) and CX(3,4), relabelled onto qubits {0, 1}.
  const CompiledCircuit other = CompiledCircuit::Compile(
      c, CompileOptions{.fuse = false, .support = {3}});
  EXPECT_EQ(other.source_qubits(), (std::vector<int>{3, 4}));
  ASSERT_EQ(other.num_ops(), 2u);
  EXPECT_EQ(other.ops()[1].q0, 0);
  EXPECT_EQ(other.ops()[1].q1, 1);
}

/// Every field of two ops, payloads bitwise.
void ExpectSameOp(const CompiledOp& a, const CompiledOp& b) {
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.src, b.src);
  EXPECT_EQ(a.q0, b.q0);
  EXPECT_EQ(a.q1, b.q1);
  EXPECT_EQ(a.c, b.c);
  EXPECT_TRUE(a.m.rows() == b.m.rows() && a.m.cols() == b.m.cols());
  for (size_t r = 0; r < a.m.rows() && r < b.m.rows(); ++r) {
    for (size_t col = 0; col < a.m.cols() && col < b.m.cols(); ++col) {
      EXPECT_EQ(a.m(r, col), b.m(r, col));
    }
  }
  EXPECT_EQ(a.qubits, b.qubits);
  EXPECT_EQ(a.exprs.size(), b.exprs.size());
  EXPECT_EQ(a.walsh.size(), b.walsh.size());
  for (size_t i = 0; i < a.walsh.size() && i < b.walsh.size(); ++i) {
    EXPECT_EQ(a.walsh[i].mask, b.walsh[i].mask);
    EXPECT_EQ(a.walsh[i].coefficient, b.walsh[i].coefficient);
  }
  EXPECT_EQ(a.members.size(), b.members.size());
  EXPECT_EQ(a.fused_gates, b.fused_gates);
}

void ExpectSameProgram(const CompiledCircuit& a, const CompiledCircuit& b) {
  EXPECT_EQ(a.num_qubits(), b.num_qubits());
  EXPECT_EQ(a.source_qubits(), b.source_qubits());
  const CompileStats& x = a.stats();
  const CompileStats& y = b.stats();
  EXPECT_EQ(x.source_gates, y.source_gates);
  EXPECT_EQ(x.pruned_gates, y.pruned_gates);
  EXPECT_EQ(x.lowered_ops, y.lowered_ops);
  EXPECT_EQ(x.emitted_ops, y.emitted_ops);
  EXPECT_EQ(x.fused_1q1q, y.fused_1q1q);
  EXPECT_EQ(x.fused_diag, y.fused_diag);
  EXPECT_EQ(x.fused_1q2q, y.fused_1q2q);
  EXPECT_EQ(x.fused_2q2q, y.fused_2q2q);
  EXPECT_EQ(x.diagonal_runs, y.diagonal_runs);
  EXPECT_EQ(x.diagonal_run_gates, y.diagonal_run_gates);
  EXPECT_EQ(x.product_prefix_ops, y.product_prefix_ops);
  ASSERT_EQ(a.num_ops(), b.num_ops());
  for (size_t i = 0; i < a.num_ops(); ++i) ExpectSameOp(a.ops()[i], b.ops()[i]);
}

TEST(CompiledCircuitTest, WholeRegisterSupportCompilesTodaysProgram) {
  Rng rng(83);
  std::vector<Circuit> circuits = {JoinOrderQaoaCircuit()};
  for (int n = 3; n <= 10; ++n) {
    circuits.push_back(RandomEveryGateCircuit(n, 4 * n, rng));
  }
  for (const Circuit& c : circuits) {
    const int n = c.num_qubits();
    std::vector<int> all(static_cast<size_t>(n));
    for (int q = 0; q < n; ++q) all[static_cast<size_t>(q)] = q;
    const DVector params = rng.UniformVector(c.num_parameters(), -2.0, 2.0);
    for (bool fuse : {false, true}) {
      const CompiledCircuit today =
          CompiledCircuit::Compile(c, CompileOptions{.fuse = fuse});
      const CompiledCircuit whole = CompiledCircuit::Compile(
          c, CompileOptions{.fuse = fuse, .support = all});
      EXPECT_EQ(today.stats().pruned_gates, 0u);
      EXPECT_EQ(today.stats().source_gates, c.size());
      ExpectSameProgram(today, whole);
      StateVector a(n), b(n);
      ASSERT_TRUE(today.Execute(a, params).ok());
      ASSERT_TRUE(whole.Execute(b, params).ok());
      ExpectBitIdentical(a, b);
    }
  }
}

TEST(CompiledCircuitTest, CacheKeysOnSupport) {
  CompilationCache& cache = CompilationCache::Global();
  cache.Clear();
  Circuit c(3);
  c.H(0).CX(0, 1).RY(2, 0.3).CX(1, 2);
  const auto whole = cache.GetOrCompile(c);
  const auto cone0 = cache.GetOrCompile(c, CompileOptions{.support = {0}});
  const auto cone2 = cache.GetOrCompile(c, CompileOptions{.support = {2}});
  EXPECT_EQ(whole->num_qubits(), 3);
  EXPECT_EQ(cone0->num_qubits(), 2);  // H(0), CX(0,1): qubits {0, 1}.
  EXPECT_EQ(cone2->num_qubits(), 3);
  EXPECT_NE(cone2.get(), whole.get());
  EXPECT_EQ(cache.GetOrCompile(c, CompileOptions{.support = {0}}).get(),
            cone0.get());
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().hits, 1);
  cache.Clear();
}

TEST(CompiledCircuitTest, CacheHitsAndStructuralKeys) {
  CompilationCache& cache = CompilationCache::Global();
  cache.Clear();

  Circuit a(3);
  a.H(0).CX(0, 1).RY(2, ParamExpr::Variable(0));
  Circuit same(3);
  same.H(0).CX(0, 1).RY(2, ParamExpr::Variable(0));
  Circuit different(3);
  different.H(0).CX(0, 1).RY(2, ParamExpr::Variable(1));

  auto p1 = cache.GetOrCompile(a);
  auto p2 = cache.GetOrCompile(same);
  EXPECT_EQ(p1.get(), p2.get());  // Structurally identical → one program.
  EXPECT_EQ(cache.size(), 1u);

  auto p3 = cache.GetOrCompile(different);
  EXPECT_NE(p1.get(), p3.get());
  EXPECT_EQ(cache.size(), 2u);

  // Fuse and no-fuse programs are distinct cache entries.
  auto p4 = cache.GetOrCompile(a, CompileOptions{.fuse = false});
  EXPECT_NE(p1.get(), p4.get());
  EXPECT_EQ(cache.size(), 3u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CompiledCircuitTest, CacheEvictsLeastRecentlyUsed) {
  CompilationCache& cache = CompilationCache::Global();
  cache.Clear();
  cache.set_capacity(2);
  Circuit a(1), b(1), c(1);
  a.H(0).X(0);
  b.H(0).Y(0);
  c.H(0).Z(0);
  auto pa = cache.GetOrCompile(a);
  auto pb = cache.GetOrCompile(b);
  cache.GetOrCompile(a);      // Refresh a; b becomes the LRU entry.
  auto pc = cache.GetOrCompile(c);  // Evicts b.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.GetOrCompile(a).get(), pa.get());  // Still resident.
  EXPECT_NE(cache.GetOrCompile(b).get(), pb.get());  // Was recompiled.
  cache.set_capacity(256);
  cache.Clear();
}

TEST(CompiledCircuitTest, CacheStatsTrackHitsMissesEvictions) {
  CompilationCache& cache = CompilationCache::Global();
  cache.Clear();
  cache.set_capacity(2);
  Circuit a(1), b(1), c(1);
  a.H(0).X(0);
  b.H(0).Y(0);
  c.H(0).Z(0);
  cache.GetOrCompile(a);  // miss
  cache.GetOrCompile(a);  // hit
  cache.GetOrCompile(b);  // miss
  cache.GetOrCompile(c);  // miss, evicts a
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  // Clear zeroes the tallies along with the entries.
  cache.set_capacity(256);
  cache.Clear();
  stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses + stats.evictions, 0);
  EXPECT_EQ(stats.size, 0u);
}

TEST(CompiledCircuitTest, ConcurrentEvictionStressIsConsistent) {
  // Many threads hammering a tiny cache with overlapping circuit sets:
  // every lookup must return a usable program and the tallies must add up.
  // Run under TSan (scripts/tier1.sh) this doubles as the data-race gate
  // for the LRU bookkeeping.
  CompilationCache& cache = CompilationCache::Global();
  cache.Clear();
  cache.set_capacity(4);
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;
  constexpr int kDistinctCircuits = 12;  // 3x capacity: constant eviction.
  std::vector<Circuit> circuits;
  for (int i = 0; i < kDistinctCircuits; ++i) {
    Circuit c(2);
    c.H(0).CX(0, 1);
    for (int r = 0; r <= i; ++r) c.RY(1, 0.1 * static_cast<double>(r + 1));
    circuits.push_back(std::move(c));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const auto& circuit = circuits[(t * 7 + i) % kDistinctCircuits];
        auto program = cache.GetOrCompile(circuit);
        if (program == nullptr ||
            program->num_qubits() != circuit.num_qubits()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * kIterations);
  EXPECT_LE(stats.size, 4u);
  EXPECT_GT(stats.evictions, 0);
  cache.set_capacity(256);
  cache.Clear();
}

}  // namespace
}  // namespace qdb
