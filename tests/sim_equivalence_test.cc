// Property tests: the state-vector simulator's specialized kernels agree
// with the dense unitary built by Kronecker products, for random circuits
// over the whole gate set; Pauli expectations agree with dense matrices.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "linalg/random_unitary.h"
#include "ops/pauli.h"
#include "sim/compiled_circuit.h"
#include "sim/statevector_simulator.h"
#include "sim/unitary_simulator.h"

namespace qdb {
namespace {

/// Dense reference: embeds `gate_matrix` acting on `qubits` of an n-qubit
/// register into the full 2^n unitary by permuting each basis vector.
Matrix EmbedGate(int num_qubits, const std::vector<int>& qubits,
                 const Matrix& gate_matrix) {
  const uint64_t dim = uint64_t{1} << num_qubits;
  const int k = static_cast<int>(qubits.size());
  Matrix full(dim, dim);
  for (uint64_t col = 0; col < dim; ++col) {
    // Extract the sub-index of the operand qubits (qubits[0] = MSB).
    uint64_t sub = 0;
    for (int j = 0; j < k; ++j) {
      const int bit = num_qubits - 1 - qubits[j];
      sub = (sub << 1) | ((col >> bit) & 1);
    }
    for (uint64_t sub_out = 0; sub_out < (uint64_t{1} << k); ++sub_out) {
      const Complex v = gate_matrix(sub_out, sub);
      if (v == Complex(0, 0)) continue;
      uint64_t row = col;
      for (int j = 0; j < k; ++j) {
        const int bit = num_qubits - 1 - qubits[j];
        const uint64_t bit_val = (sub_out >> (k - 1 - j)) & 1;
        row = (row & ~(uint64_t{1} << bit)) | (bit_val << bit);
      }
      full(row, col) += v;
    }
  }
  return full;
}

struct GateCase {
  GateType type;
  int arity;
  int params;
};

const GateCase kAllFixedArityGates[] = {
    {GateType::kI, 1, 0},     {GateType::kX, 1, 0},
    {GateType::kY, 1, 0},     {GateType::kZ, 1, 0},
    {GateType::kH, 1, 0},     {GateType::kS, 1, 0},
    {GateType::kSdg, 1, 0},   {GateType::kT, 1, 0},
    {GateType::kTdg, 1, 0},   {GateType::kSX, 1, 0},
    {GateType::kRX, 1, 1},    {GateType::kRY, 1, 1},
    {GateType::kRZ, 1, 1},    {GateType::kPhase, 1, 1},
    {GateType::kU, 1, 3},     {GateType::kCX, 2, 0},
    {GateType::kCY, 2, 0},    {GateType::kCZ, 2, 0},
    {GateType::kCH, 2, 0},    {GateType::kSwap, 2, 0},
    {GateType::kCRX, 2, 1},   {GateType::kCRY, 2, 1},
    {GateType::kCRZ, 2, 1},   {GateType::kCPhase, 2, 1},
    {GateType::kRXX, 2, 1},   {GateType::kRYY, 2, 1},
    {GateType::kRZZ, 2, 1},   {GateType::kCCX, 3, 0},
    {GateType::kCSwap, 3, 0},
};

/// MCX and MCZ with 1–3 controls, run at n = 5: the last operand is the
/// target, the others are controls.
const GateCase kVariadicGates[] = {
    {GateType::kMCX, 2, 0}, {GateType::kMCX, 3, 0}, {GateType::kMCX, 4, 0},
    {GateType::kMCZ, 2, 0}, {GateType::kMCZ, 3, 0}, {GateType::kMCZ, 4, 0},
};

/// The 2^k matrix of a variadic gate in operand order (target = low bit);
/// GateMatrix rejects variadic gates, so the oracle builds its own.
Matrix VariadicMatrix(GateType type, int arity) {
  const uint64_t dim = uint64_t{1} << arity;
  Matrix u = Matrix::Identity(dim);
  if (type == GateType::kMCX) {
    u(dim - 2, dim - 2) = u(dim - 1, dim - 1) = Complex(0, 0);
    u(dim - 2, dim - 1) = u(dim - 1, dim - 2) = Complex(1, 0);
  } else {
    u(dim - 1, dim - 1) = Complex(-1, 0);
  }
  return u;
}

/// The lowering ladder's independent reference: each gate, streamed through
/// its lowered CompiledOp, against the dense embedding of its matrix.
class PerGateEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(PerGateEquivalenceTest, KernelMatchesDenseEmbedding) {
  const int num_fixed = static_cast<int>(std::size(kAllFixedArityGates));
  const bool variadic = GetParam() >= num_fixed;
  const GateCase& gc = variadic ? kVariadicGates[GetParam() - num_fixed]
                                : kAllFixedArityGates[GetParam()];
  const int n = variadic ? 5 : 4;
  Rng rng(500 + GetParam());
  // Random distinct operand qubits, random angles, random initial state.
  std::vector<int> qubits;
  while (static_cast<int>(qubits.size()) < gc.arity) {
    int q = static_cast<int>(rng.UniformInt(uint64_t(n)));
    bool dup = false;
    for (int e : qubits) dup |= (e == q);
    if (!dup) qubits.push_back(q);
  }
  DVector angles;
  for (int p = 0; p < gc.params; ++p) angles.push_back(rng.Uniform(-3.0, 3.0));

  CVector init = RandomState(uint64_t{1} << n, rng);
  auto psi = StateVector::FromAmplitudes(init);
  ASSERT_TRUE(psi.ok());
  StateVector state = psi.value();

  Gate gate{gc.type, qubits, {}};
  for (double a : angles) gate.params.push_back(ParamExpr::Constant(a));
  StreamGate(gate, angles, state);

  Matrix full = EmbedGate(n, qubits,
                          variadic ? VariadicMatrix(gc.type, gc.arity)
                                   : GateMatrix(gc.type, angles));
  CVector expected = full.Apply(init);
  for (uint64_t i = 0; i < state.dim(); ++i) {
    ASSERT_NEAR(std::abs(state.amplitude(i) - expected[i]), 0.0, 1e-10)
        << GateTypeName(gc.type) << " on qubits index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, PerGateEquivalenceTest,
    ::testing::Range(0, static_cast<int>(std::size(kAllFixedArityGates) +
                                         std::size(kVariadicGates))));

class RandomCircuitEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(RandomCircuitEquivalenceTest, CircuitUnitaryIsUnitary) {
  Rng rng(GetParam());
  Circuit c(4);
  for (int g = 0; g < 30; ++g) {
    const GateCase& gc =
        kAllFixedArityGates[rng.UniformInt(std::size(kAllFixedArityGates))];
    std::vector<int> qubits;
    while (static_cast<int>(qubits.size()) < gc.arity) {
      int q = static_cast<int>(rng.UniformInt(uint64_t{4}));
      bool dup = false;
      for (int e : qubits) dup |= (e == q);
      if (!dup) qubits.push_back(q);
    }
    Gate gate{gc.type, qubits, {}};
    for (int p = 0; p < gc.params; ++p) {
      gate.params.push_back(ParamExpr::Constant(rng.Uniform(-3.0, 3.0)));
    }
    c.Append(gate);
  }
  auto u = CircuitUnitary(c);
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(u.value().IsUnitary(1e-9));
}

TEST_P(RandomCircuitEquivalenceTest, PauliExpectationMatchesDense) {
  Rng rng(1000 + GetParam());
  const int n = 3;
  CVector amps = RandomState(uint64_t{1} << n, rng);
  auto psi = StateVector::FromAmplitudes(amps);
  ASSERT_TRUE(psi.ok());

  // Random Pauli string.
  PauliString pauli(n);
  for (int q = 0; q < n; ++q) {
    pauli.set_op(q, static_cast<PauliOp>(rng.UniformInt(uint64_t{4})));
  }
  const double fast = Expectation(psi.value(), pauli);
  // Dense reference ⟨ψ|P|ψ⟩.
  CVector p_psi = pauli.ToMatrix().Apply(amps);
  Complex dense(0, 0);
  for (size_t i = 0; i < amps.size(); ++i) {
    dense += std::conj(amps[i]) * p_psi[i];
  }
  EXPECT_NEAR(fast, dense.real(), 1e-10) << pauli.ToString();
  EXPECT_NEAR(dense.imag(), 0.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12));

TEST(SimulatorTest, ParameterBindingErrors) {
  Circuit c(1);
  c.RX(0, ParamExpr::Variable(2));
  StateVectorSimulator sim;
  EXPECT_FALSE(sim.Run(c, {0.1}).ok());      // Too few parameters.
  EXPECT_TRUE(sim.Run(c, {0.1, 0.2, 0.3}).ok());
}

TEST(SimulatorTest, WidthMismatchError) {
  Circuit c(2);
  c.H(0);
  StateVector s(3);
  StateVectorSimulator sim;
  EXPECT_FALSE(sim.RunInPlace(c, s).ok());
}

TEST(UnitarySimulatorTest, GhzCircuit) {
  Circuit c(3);
  c.H(0).CX(0, 1).CX(1, 2);
  auto u = CircuitUnitary(c);
  ASSERT_TRUE(u.ok());
  // First column is the GHZ state.
  EXPECT_NEAR(u.value()(0, 0).real(), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(u.value()(7, 0).real(), 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(UnitarySimulatorTest, RejectsWideCircuits) {
  Circuit c(13);
  c.H(0);
  EXPECT_FALSE(CircuitUnitary(c).ok());
}

}  // namespace
}  // namespace qdb
