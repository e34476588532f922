// Tests for error mitigation: circuit folding, Richardson extrapolation
// and zero-noise extrapolation.

#include <gtest/gtest.h>

#include <cmath>

#include "circuit_unitary.h"
#include "mitigation/zne.h"

namespace qdb {
namespace {

TEST(FoldTest, ScaleOnePassesThrough) {
  Circuit c(2);
  c.H(0).CX(0, 1);
  auto folded = FoldCircuit(c, 1);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(folded.value().size(), c.size());
}

TEST(FoldTest, FoldingPreservesUnitary) {
  Circuit c(2);
  c.H(0).CRY(0, 1, 0.7).RZZ(0, 1, 0.3).T(1);
  for (int scale : {3, 5}) {
    auto folded = FoldCircuit(c, scale);
    ASSERT_TRUE(folded.ok());
    EXPECT_EQ(folded.value().size(), c.size() * scale);
    Matrix u_orig = CircuitUnitary(c).ValueOrDie();
    Matrix u_folded = CircuitUnitary(folded.value()).ValueOrDie();
    EXPECT_TRUE(u_orig.ApproxEqual(u_folded, 1e-9)) << "scale " << scale;
  }
}

TEST(FoldTest, RejectsEvenOrNonPositiveScales) {
  Circuit c(1);
  c.H(0);
  EXPECT_FALSE(FoldCircuit(c, 0).ok());
  EXPECT_FALSE(FoldCircuit(c, 2).ok());
  EXPECT_FALSE(FoldCircuit(c, -3).ok());
}

TEST(RichardsonTest, ExactForPolynomials) {
  // Data from y = 2 − 3x + x²: three points recover y(0) = 2 exactly.
  DVector xs = {1.0, 3.0, 5.0};
  DVector ys;
  for (double x : xs) ys.push_back(2.0 - 3.0 * x + x * x);
  auto r = RichardsonExtrapolate(xs, ys);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 2.0, 1e-10);
}

TEST(RichardsonTest, Validation) {
  EXPECT_FALSE(RichardsonExtrapolate({1.0}, {2.0}).ok());
  EXPECT_FALSE(RichardsonExtrapolate({1.0, 1.0}, {2.0, 3.0}).ok());
  EXPECT_FALSE(RichardsonExtrapolate({1.0, 2.0}, {2.0}).ok());
}

TEST(ZneTest, RecoversGhzWitnessUnderDepolarizingNoise) {
  // The canonical demo: a GHZ witness decays under noise; ZNE pulls the
  // estimate most of the way back to the ideal value 1.0.
  Circuit ghz(3);
  ghz.H(0).CX(0, 1).CX(1, 2);
  PauliSum witness(3);
  PauliString xxx(3);
  for (int q = 0; q < 3; ++q) xxx.set_op(q, PauliOp::kX);
  witness.Add(1.0, xxx);

  auto noise = NoiseModel::Depolarizing(0.004, 0.008);
  ASSERT_TRUE(noise.ok());
  DensitySimulator sim(noise.value());
  auto zne = ZeroNoiseExtrapolate(ghz, witness, sim);
  ASSERT_TRUE(zne.ok()) << zne.status();

  EXPECT_LT(zne.value().unmitigated, 0.98);  // Noise visibly bites.
  const double raw_error = std::abs(zne.value().unmitigated - 1.0);
  const double mitigated_error = std::abs(zne.value().mitigated - 1.0);
  EXPECT_LT(mitigated_error, raw_error / 3.0);  // ≥3x improvement.
  // Raw values decay monotonically with the fold scale.
  const auto& raw = zne.value().raw_values;
  ASSERT_EQ(raw.size(), 3u);
  EXPECT_GT(raw[0], raw[1]);
  EXPECT_GT(raw[1], raw[2]);
}

TEST(ZneTest, NoiselessIsFixedPoint) {
  Circuit c(2);
  c.H(0).CX(0, 1);
  PauliSum zz(2);
  zz.Add(1.0, "ZZ");
  DensitySimulator noiseless;
  auto zne = ZeroNoiseExtrapolate(c, zz, noiseless);
  ASSERT_TRUE(zne.ok());
  EXPECT_NEAR(zne.value().mitigated, 1.0, 1e-9);
  EXPECT_NEAR(zne.value().unmitigated, 1.0, 1e-9);
}

TEST(ZneTest, Validation) {
  Circuit c(1);
  c.H(0);
  PauliSum z(1);
  z.Add(1.0, "Z");
  DensitySimulator sim;
  ZneOptions too_few;
  too_few.scale_factors = {1};
  EXPECT_FALSE(ZeroNoiseExtrapolate(c, z, sim, too_few).ok());
  ZneOptions duplicate;
  duplicate.scale_factors = {1, 1, 3};
  EXPECT_FALSE(ZeroNoiseExtrapolate(c, z, sim, duplicate).ok());
  ZneOptions even;
  even.scale_factors = {1, 2};
  EXPECT_FALSE(ZeroNoiseExtrapolate(c, z, sim, even).ok());
}

}  // namespace
}  // namespace qdb
