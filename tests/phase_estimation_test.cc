// Tests for the QFT and quantum phase estimation.

#include <gtest/gtest.h>

#include <cmath>

#include "algo/phase_estimation.h"
#include "circuit_unitary.h"
#include "sim/statevector_simulator.h"

namespace qdb {
namespace {

TEST(QftTest, MatrixMatchesDftDefinition) {
  const int n = 3;
  const uint64_t dim = 8;
  auto u = CircuitUnitary(QftCircuit(n));
  ASSERT_TRUE(u.ok());
  const double inv_sqrt = 1.0 / std::sqrt(static_cast<double>(dim));
  for (uint64_t r = 0; r < dim; ++r) {
    for (uint64_t c = 0; c < dim; ++c) {
      const Complex expected =
          inv_sqrt * std::exp(Complex(0, 2.0 * M_PI * r * c / dim));
      EXPECT_NEAR(std::abs(u.value()(r, c) - expected), 0.0, 1e-10)
          << r << "," << c;
    }
  }
}

TEST(QftTest, InverseComposesToIdentity) {
  Circuit c = QftCircuit(4);
  c.Append(InverseQftCircuit(4));
  auto u = CircuitUnitary(c);
  ASSERT_TRUE(u.ok());
  EXPECT_TRUE(u.value().ApproxEqual(Matrix::Identity(16), 1e-9));
}

TEST(QpeTest, ExactlyRepresentablePhaseIsDeterministic) {
  // φ = 3/8 with 3 ancillas: the readout is exact.
  const double phase = 3.0 / 8.0;
  auto c = PhaseEstimationCircuit(phase, 3);
  ASSERT_TRUE(c.ok());
  StateVectorSimulator sim;
  auto state = sim.Run(c.value());
  ASSERT_TRUE(state.ok());
  // Expected outcome: ancilla register reads 3 (then the target qubit 1).
  const uint64_t expected_index = (3u << 1) | 1u;
  EXPECT_NEAR(state.value().Probability(expected_index), 1.0, 1e-9);
}

class QpePrecisionTest : public ::testing::TestWithParam<int> {};

TEST_P(QpePrecisionTest, EstimateWithinResolution) {
  const int t = GetParam();
  Rng rng(60 + t);
  const double phase = 0.31417;
  auto estimate = EstimatePhase(phase, t, /*shots=*/512, rng);
  ASSERT_TRUE(estimate.ok());
  const double resolution = 1.0 / static_cast<double>(uint64_t{1} << t);
  EXPECT_NEAR(estimate.value().estimated_phase, phase, 1.5 * resolution);
}

INSTANTIATE_TEST_SUITE_P(Precisions, QpePrecisionTest,
                         ::testing::Values(3, 4, 5, 6, 8));

TEST(QpeTest, HigherPrecisionTightensEstimate) {
  Rng rng(71);
  const double phase = 0.137;
  auto coarse = EstimatePhase(phase, 3, 512, rng);
  auto fine = EstimatePhase(phase, 8, 512, rng);
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(fine.ok());
  EXPECT_LE(std::abs(fine.value().estimated_phase - phase),
            std::abs(coarse.value().estimated_phase - phase) + 1e-12);
}

TEST(QpeTest, Validation) {
  EXPECT_FALSE(PhaseEstimationCircuit(0.1, 0).ok());
  EXPECT_FALSE(PhaseEstimationCircuit(0.1, 20).ok());
  Rng rng(1);
  EXPECT_FALSE(EstimatePhase(0.1, 4, 0, rng).ok());
}

}  // namespace
}  // namespace qdb
