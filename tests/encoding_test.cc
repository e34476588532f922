// Tests for data encodings, including the multiplexed-RY state preparation.

#include <gtest/gtest.h>

#include <cmath>

#include "circuit_unitary.h"
#include "common/rng.h"
#include "encoding/encodings.h"
#include "linalg/vector_ops.h"
#include "sim/statevector_simulator.h"

namespace qdb {
namespace {

StateVector RunCircuit(const Circuit& c) {
  StateVectorSimulator sim;
  auto result = sim.Run(c);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.value();
}

TEST(BasisEncodingTest, PreparesBasisState) {
  StateVector s = RunCircuit(BasisEncoding({1, 0, 1}));
  EXPECT_EQ(s.amplitude(0b101), Complex(1, 0));
}

TEST(AngleEncodingTest, RyAnglesGiveExpectedProbabilities) {
  const double theta = 1.1;
  StateVector s = RunCircuit(AngleEncoding({theta}, RotationAxis::kY));
  EXPECT_NEAR(s.ProbabilityOfOne(0), std::sin(theta / 2) * std::sin(theta / 2),
              1e-12);
}

TEST(AngleEncodingTest, ScaleMultipliesAngles) {
  StateVector a = RunCircuit(AngleEncoding({0.5}, RotationAxis::kY, 2.0));
  StateVector b = RunCircuit(AngleEncoding({1.0}, RotationAxis::kY, 1.0));
  EXPECT_NEAR(Fidelity(a.ToAmplitudes(), b.ToAmplitudes()), 1.0, 1e-12);
}

TEST(AngleEncodingTest, AxisVariants) {
  // X-axis rotation also moves population; Z-axis creates phases on |+⟩.
  StateVector x = RunCircuit(AngleEncoding({1.0}, RotationAxis::kX));
  EXPECT_GT(x.ProbabilityOfOne(0), 0.1);
  StateVector z = RunCircuit(AngleEncoding({1.0}, RotationAxis::kZ));
  EXPECT_NEAR(z.ProbabilityOfOne(0), 0.5, 1e-12);  // H then RZ: flat.
  EXPECT_GT(std::abs(std::arg(z.amplitude(1) / z.amplitude(0))), 0.5);
}

TEST(ZZFeatureMapTest, WidthAndDifferentiation) {
  Circuit c = ZZFeatureMap({0.3, 0.8, 1.2}, 2);
  EXPECT_EQ(c.num_qubits(), 3);
  // Different data → different states (the map is injective enough here).
  StateVector a = RunCircuit(ZZFeatureMap({0.3, 0.8}, 2));
  StateVector b = RunCircuit(ZZFeatureMap({0.9, 0.1}, 2));
  EXPECT_LT(Fidelity(a.ToAmplitudes(), b.ToAmplitudes()), 0.999);
}

TEST(ZZFeatureMapTest, SingleFeatureHasNoEntanglers) {
  Circuit c = ZZFeatureMap({0.5}, 1);
  for (const auto& g : c.gates()) {
    EXPECT_LT(g.qubits.size(), 2u);
  }
}

TEST(MultiplexedRyTest, NoControlsIsPlainRy) {
  Circuit c(1);
  AppendMultiplexedRY(c, {}, 0, {0.7});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.gates()[0].type, GateType::kRY);
}

TEST(MultiplexedRyTest, MatchesBlockDiagonalReference) {
  // Reference: diag(RY(θ0), RY(θ1)) with the control as the high bit.
  const DVector angles = {0.4, -1.3};
  Circuit c(2);
  AppendMultiplexedRY(c, {0}, 1, angles);
  auto u = CircuitUnitary(c);
  ASSERT_TRUE(u.ok());
  Matrix expected(4, 4);
  for (int block = 0; block < 2; ++block) {
    Matrix ry = GateMatrix(GateType::kRY, {angles[block]});
    for (int r = 0; r < 2; ++r) {
      for (int col = 0; col < 2; ++col) {
        expected(2 * block + r, 2 * block + col) = ry(r, col);
      }
    }
  }
  EXPECT_TRUE(u.value().ApproxEqual(expected, 1e-10));
}

TEST(MultiplexedRyTest, TwoControlsBlockStructure) {
  const DVector angles = {0.1, 0.9, -0.4, 2.2};
  Circuit c(3);
  AppendMultiplexedRY(c, {0, 1}, 2, angles);
  auto u = CircuitUnitary(c);
  ASSERT_TRUE(u.ok());
  for (int block = 0; block < 4; ++block) {
    Matrix ry = GateMatrix(GateType::kRY, {angles[block]});
    for (int r = 0; r < 2; ++r) {
      for (int col = 0; col < 2; ++col) {
        EXPECT_NEAR(std::abs(u.value()(2 * block + r, 2 * block + col) -
                             ry(r, col)),
                    0.0, 1e-10)
            << "block " << block;
      }
    }
  }
}

TEST(AmplitudeEncodingTest, RejectsDegenerateInput) {
  EXPECT_FALSE(AmplitudeEncoding({}).ok());
  EXPECT_FALSE(AmplitudeEncoding({0.0, 0.0}).ok());
}

TEST(AmplitudeEncodingTest, PadsToPowerOfTwo) {
  auto state = AmplitudeEncodedState({1.0, 1.0, 1.0});
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state.value().size(), 4u);
  EXPECT_NEAR(std::abs(state.value()[3]), 0.0, 1e-12);
}

class AmplitudeEncodingPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(AmplitudeEncodingPropertyTest, CircuitPreparesNormalizedVector) {
  // Property: for random real vectors (mixed signs), the state-prep circuit
  // produces exactly the normalized amplitudes.
  const auto& [length, seed] = GetParam();
  Rng rng(seed);
  DVector x(length);
  for (auto& v : x) v = rng.Uniform(-1.0, 1.0);
  if (Norm(x) < 1e-6) x[0] = 1.0;

  auto circuit = AmplitudeEncoding(x);
  ASSERT_TRUE(circuit.ok()) << circuit.status();
  auto expected = AmplitudeEncodedState(x);
  ASSERT_TRUE(expected.ok());

  StateVector s = RunCircuit(circuit.value());
  ASSERT_EQ(s.dim(), expected.value().size());
  for (uint64_t i = 0; i < s.dim(); ++i) {
    EXPECT_NEAR(std::abs(s.amplitude(i) - expected.value()[i]), 0.0, 1e-9)
        << "len=" << length << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AmplitudeEncodingPropertyTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 7, 8, 16),
                       ::testing::Values(1u, 2u, 3u)));

TEST(AmplitudeEncodingTest, SingleElementVector) {
  auto circuit = AmplitudeEncoding({5.0});
  ASSERT_TRUE(circuit.ok());
  StateVector s = RunCircuit(circuit.value());
  EXPECT_NEAR(std::abs(s.amplitude(0)), 1.0, 1e-12);
}

TEST(AmplitudeEncodingTest, HandlesNegativeLeadingAmplitude) {
  auto circuit = AmplitudeEncoding({-3.0, 4.0});
  ASSERT_TRUE(circuit.ok());
  StateVector s = RunCircuit(circuit.value());
  EXPECT_NEAR(s.amplitude(0).real(), -0.6, 1e-9);
  EXPECT_NEAR(s.amplitude(1).real(), 0.8, 1e-9);
}

}  // namespace
}  // namespace qdb
