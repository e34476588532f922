// Tests for the circuit IR: building, metadata, inverse, binding, append.

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/circuit.h"
#include "circuit_unitary.h"
#include "common/rng.h"

namespace qdb {
namespace {

TEST(CircuitTest, EmptyCircuit) {
  Circuit c(3);
  EXPECT_EQ(c.num_qubits(), 3);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.num_parameters(), 0);
  EXPECT_EQ(c.Depth(), 0);
}

TEST(CircuitTest, FluentBuilding) {
  Circuit c(2);
  c.H(0).CX(0, 1).RZ(1, 0.5);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.gates()[0].type, GateType::kH);
  EXPECT_EQ(c.gates()[1].qubits, (std::vector<int>{0, 1}));
  EXPECT_EQ(c.gates()[2].params[0].offset, 0.5);
}

TEST(CircuitTest, ParameterTracking) {
  Circuit c(2);
  c.RX(0, ParamExpr::Variable(0));
  c.RY(1, ParamExpr::Variable(4));
  EXPECT_EQ(c.num_parameters(), 5);  // max index + 1
  c.RZ(0, 0.3);                      // Constant does not extend the table.
  EXPECT_EQ(c.num_parameters(), 5);
}

TEST(CircuitTest, DepthComputation) {
  Circuit c(3);
  c.H(0).H(1).H(2);  // Parallel layer: depth 1.
  EXPECT_EQ(c.Depth(), 1);
  c.CX(0, 1);  // Depth 2 on qubits 0, 1.
  EXPECT_EQ(c.Depth(), 2);
  c.CX(1, 2);  // Chains through qubit 1: depth 3.
  EXPECT_EQ(c.Depth(), 3);
  c.X(0);  // Qubit 0 is at level 2 → 3; depth stays 3.
  EXPECT_EQ(c.Depth(), 3);
}

TEST(CircuitTest, TwoQubitGateCount) {
  Circuit c(3);
  c.H(0).CX(0, 1).RZZ(1, 2, 0.1).CCX(0, 1, 2).X(2);
  EXPECT_EQ(c.TwoQubitGateCount(), 3);  // CX, RZZ, CCX (≥ 2 operands).
}

TEST(CircuitTest, AppendCircuit) {
  Circuit a(2);
  a.H(0);
  Circuit b(2);
  b.CX(0, 1);
  a.Append(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.gates()[1].type, GateType::kCX);
}

TEST(CircuitTest, AppendMappedRelocatesQubits) {
  Circuit inner(2);
  inner.CX(0, 1);
  Circuit outer(4);
  outer.AppendMapped(inner, {3, 1});
  EXPECT_EQ(outer.gates()[0].qubits, (std::vector<int>{3, 1}));
}

TEST(CircuitTest, BindReplacesParameters) {
  Circuit c(1);
  c.RX(0, ParamExpr::Variable(0));
  c.RY(0, ParamExpr::Affine(1, 2.0, 0.5));
  Circuit bound = c.Bind({0.3, 1.0});
  EXPECT_EQ(bound.num_parameters(), 0);
  EXPECT_NEAR(bound.gates()[0].params[0].offset, 0.3, 1e-15);
  EXPECT_NEAR(bound.gates()[1].params[0].offset, 2.5, 1e-15);
}

TEST(CircuitTest, EvaluateAngles) {
  Circuit c(1);
  c.U(0, ParamExpr::Variable(0), ParamExpr::Constant(0.1),
      ParamExpr::Affine(1, -1.0, 0.0));
  DVector angles = c.EvaluateAngles(0, {0.7, 0.2});
  ASSERT_EQ(angles.size(), 3u);
  EXPECT_NEAR(angles[0], 0.7, 1e-15);
  EXPECT_NEAR(angles[1], 0.1, 1e-15);
  EXPECT_NEAR(angles[2], -0.2, 1e-15);
}

TEST(CircuitTest, MCXAndMCZBuild) {
  Circuit c(4);
  c.MCX({0, 1, 2}, 3);
  c.MCZ({0, 1}, 3);
  EXPECT_EQ(c.gates()[0].type, GateType::kMCX);
  EXPECT_EQ(c.gates()[0].qubits.size(), 4u);
  EXPECT_EQ(c.gates()[1].qubits.size(), 3u);
}

TEST(CircuitTest, ToStringRendersGates) {
  Circuit c(2);
  c.H(0).CX(0, 1).RX(1, ParamExpr::Variable(2));
  std::string text = c.ToString();
  EXPECT_NE(text.find("h q[0]"), std::string::npos);
  EXPECT_NE(text.find("cx q[0], q[1]"), std::string::npos);
  EXPECT_NE(text.find("rx(t2)"), std::string::npos);
}

// --- Inverse: every circuit composed with its inverse is the identity. ----

class CircuitInverseTest : public ::testing::TestWithParam<uint64_t> {};

Circuit RandomCircuit(int num_qubits, int num_gates, Rng& rng) {
  Circuit c(num_qubits);
  for (int g = 0; g < num_gates; ++g) {
    const int q = static_cast<int>(rng.UniformInt(uint64_t(num_qubits)));
    int q2 = static_cast<int>(rng.UniformInt(uint64_t(num_qubits - 1)));
    if (q2 >= q) ++q2;
    const double angle = rng.Uniform(-M_PI, M_PI);
    switch (rng.UniformInt(uint64_t{14})) {
      case 0: c.H(q); break;
      case 1: c.X(q); break;
      case 2: c.S(q); break;
      case 3: c.T(q); break;
      case 4: c.SX(q); break;
      case 5: c.RX(q, angle); break;
      case 6: c.RY(q, angle); break;
      case 7: c.RZ(q, angle); break;
      case 8: c.P(q, angle); break;
      case 9: c.CX(q, q2); break;
      case 10: c.CZ(q, q2); break;
      case 11: c.RZZ(q, q2, angle); break;
      case 12: c.CRY(q, q2, angle); break;
      default:
        c.U(q, ParamExpr::Constant(angle), ParamExpr::Constant(angle / 2),
            ParamExpr::Constant(-angle / 3));
        break;
    }
  }
  return c;
}

TEST_P(CircuitInverseTest, ComposesToIdentity) {
  Rng rng(GetParam());
  Circuit c = RandomCircuit(3, 25, rng);
  Circuit round_trip = c;
  round_trip.Append(c.Inverse());
  auto u = CircuitUnitary(round_trip);
  ASSERT_TRUE(u.ok()) << u.status();
  EXPECT_TRUE(u.value().ApproxEqual(Matrix::Identity(8), 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CircuitInverseTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(CircuitTest, InverseOfParameterizedCircuitStaysSymbolic) {
  Circuit c(1);
  c.RX(0, ParamExpr::Variable(0));
  Circuit inv = c.Inverse();
  EXPECT_EQ(inv.num_parameters(), 1);
  EXPECT_EQ(inv.gates()[0].params[0].multiplier, -1.0);
}

TEST(CircuitTest, InverseOfCcxAndSwap) {
  Circuit c(3);
  c.CCX(0, 1, 2).Swap(0, 2).MCZ({0}, 1);
  Circuit round_trip = c;
  round_trip.Append(c.Inverse());
  auto u = CircuitUnitary(round_trip);
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(u.value().ApproxEqual(Matrix::Identity(8), 1e-10));
}

}  // namespace
}  // namespace qdb
