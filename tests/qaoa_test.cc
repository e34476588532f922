// Tests for the QAOA driver.

#include <gtest/gtest.h>

#include <cmath>

#include "anneal/exhaustive.h"
#include "ops/graph_hamiltonians.h"
#include "sim/statevector_simulator.h"
#include "variational/qaoa.h"

namespace qdb {
namespace {

TEST(QaoaTest, CircuitLayout) {
  IsingModel ising(3);
  ising.AddCoupling(0, 1, 1.0);
  ising.AddCoupling(1, 2, 1.0);
  ising.AddField(0, 0.5);
  Qaoa qaoa(ising, /*layers=*/2);
  const Circuit& c = qaoa.circuit();
  EXPECT_EQ(c.num_qubits(), 3);
  EXPECT_EQ(c.num_parameters(), 4);  // 2 γ + 2 β.
  // Per layer: 1 RZ (field) + 2 RZZ + 3 RX; plus 3 initial H.
  EXPECT_EQ(c.size(), 3u + 2u * (1u + 2u + 3u));
}

TEST(QaoaTest, ZeroAnglesGiveUniformSuperpositionEnergy) {
  // At γ = β = 0 the state is |+⟩^n, where ⟨Z_i⟩ = ⟨Z_iZ_j⟩ = 0, so the
  // energy is exactly the offset.
  IsingModel ising(2);
  ising.AddCoupling(0, 1, 1.0);
  ising.AddField(0, 0.7);
  ising.AddOffset(1.25);
  Qaoa qaoa(ising, 1);
  auto e = qaoa.Energy({0.0, 0.0});
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e.value(), 1.25, 1e-10);
}

TEST(QaoaTest, SingleEdgeAnalyticOptimum) {
  // One ZZ coupling, p = 1: E(γ, β) = cos... the known optimum reaches
  // energy −1 at (γ, β) = (π/4, π/8)-equivalents; just check the driver
  // achieves ≤ −0.9.
  IsingModel ising(2);
  ising.AddCoupling(0, 1, 1.0);
  Qaoa qaoa(ising, 1);
  QaoaOptions opts;
  opts.restarts = 3;
  opts.nelder_mead.max_iterations = 300;
  auto result = qaoa.Optimize(opts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LT(result.value().expected_energy, -0.9);
  EXPECT_NEAR(result.value().best_energy, -1.0, 1e-9);
}

TEST(QaoaTest, MaxCutRingApproximationImprovesWithDepth) {
  WeightedGraph ring = RingGraph(6);
  IsingModel ising = MaxCutIsing(ring);
  const double optimal_cut = 6.0;

  QaoaOptions opts;
  opts.restarts = 4;
  opts.seed = 5;
  opts.nelder_mead.max_iterations = 400;

  Qaoa shallow(ising, 1);
  auto r1 = shallow.Optimize(opts);
  ASSERT_TRUE(r1.ok());
  const double cut1 =
      (ring.TotalWeight() - r1.value().expected_energy) / 2.0;

  Qaoa deeper(ising, 3);
  auto r3 = deeper.Optimize(opts);
  ASSERT_TRUE(r3.ok());
  const double cut3 =
      (ring.TotalWeight() - r3.value().expected_energy) / 2.0;

  EXPECT_GT(cut1 / optimal_cut, 0.6);
  EXPECT_GT(cut3 / optimal_cut, cut1 / optimal_cut - 0.05);
  EXPECT_GT(cut3 / optimal_cut, 0.85);
}

TEST(QaoaTest, SampledSolutionIsGroundStateOnSmallInstance) {
  Rng rng(7);
  WeightedGraph g = ErdosRenyiGraph(5, 0.7, rng);
  IsingModel ising = MaxCutIsing(g);
  auto exact = ExhaustiveSolve(ising);
  ASSERT_TRUE(exact.ok());

  Qaoa qaoa(ising, 2);
  QaoaOptions opts;
  opts.restarts = 4;
  opts.sample_shots = 1024;
  opts.nelder_mead.max_iterations = 300;
  auto result = qaoa.Optimize(opts);
  ASSERT_TRUE(result.ok());
  // Sampling the optimized distribution should uncover the true optimum on
  // an instance this small.
  EXPECT_NEAR(result.value().best_energy, exact.value().best_energy, 1e-9);
}

TEST(QaoaTest, SampleBestReturnsValidSpins) {
  IsingModel ising(3);
  ising.AddCoupling(0, 1, 1.0);
  ising.AddCoupling(1, 2, -0.5);
  Qaoa qaoa(ising, 1);
  Rng rng(11);
  auto spins = qaoa.SampleBest({0.3, 0.7}, 64, rng);
  ASSERT_TRUE(spins.ok());
  ASSERT_EQ(spins.value().size(), 3u);
  for (int8_t s : spins.value()) EXPECT_TRUE(s == 1 || s == -1);
}

TEST(QaoaTest, OptimizeCountsOnlyItsOwnEvaluations) {
  // Energy calls made before Optimize, on the Qaoa or on a copy of it, must
  // not leak into the evaluation count Optimize reports.
  IsingModel ising(3);
  ising.AddCoupling(0, 1, 1.0);
  ising.AddCoupling(1, 2, -0.5);
  QaoaOptions opts;
  opts.restarts = 2;
  opts.sample_shots = 64;
  opts.nelder_mead.max_iterations = 40;
  const Qaoa fresh(ising, 1);
  auto baseline = fresh.Optimize(opts);
  ASSERT_TRUE(baseline.ok());
  EXPECT_GT(baseline.value().circuit_evaluations, 0);

  const Qaoa used(ising, 1);
  for (int k = 0; k < 5; ++k) ASSERT_TRUE(used.Energy({0.1 * k, 0.2}).ok());
  const Qaoa copy = used;
  ASSERT_TRUE(copy.Energy({0.3, 0.4}).ok());
  auto again = copy.Optimize(opts);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().circuit_evaluations,
            baseline.value().circuit_evaluations);
}

TEST(QaoaTest, EnergyMatchesDiagonalExpectation) {
  // Cross-check the PauliSum pathway against a direct diagonal computation.
  IsingModel ising(2);
  ising.AddCoupling(0, 1, 0.8);
  ising.AddField(1, -0.3);
  ising.AddOffset(0.1);
  Qaoa qaoa(ising, 1);
  const DVector params = {0.4, 0.9};
  auto via_driver = qaoa.Energy(params);
  ASSERT_TRUE(via_driver.ok());

  StateVectorSimulator sim;
  auto state = sim.Run(qaoa.circuit(), params);
  ASSERT_TRUE(state.ok());
  auto diag = ising.ToPauliSum().DiagonalValues();
  ASSERT_TRUE(diag.ok());
  double manual = 0.0;
  for (uint64_t i = 0; i < state.value().dim(); ++i) {
    manual += state.value().Probability(i) * diag.value()[i];
  }
  EXPECT_NEAR(via_driver.value(), manual, 1e-10);
}

}  // namespace
}  // namespace qdb
