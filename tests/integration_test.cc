// Cross-module integration tests: full quantum-database pipelines.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "anneal/quantum_annealing.h"
#include "anneal/simulated_annealing.h"
#include "classical/metrics.h"
#include "classical/svm.h"
#include "db/join_order_dp.h"
#include "db/join_order_greedy.h"
#include "db/join_order_qubo.h"
#include "kernel/quantum_kernel.h"
#include "mitigation/zne.h"
#include "ops/graph_hamiltonians.h"
#include "sim/statevector_simulator.h"
#include "variational/qaoa.h"
#include "variational/vqc.h"

namespace qdb {
namespace {

TEST(IntegrationTest, QuantumAnnealedJoinOrderingPipeline) {
  // Full E7 pipeline: query graph → QUBO → SQA → decode → C_out, compared
  // against the DP optimum and greedy baseline.
  Rng rng(3);
  auto g = RandomQuery(QueryShape::kChain, 8, rng);
  ASSERT_TRUE(g.ok());
  auto enc = JoinOrderQubo::Create(g.value());
  ASSERT_TRUE(enc.ok());

  SqaOptions sqa_opts;
  sqa_opts.num_sweeps = 600;
  sqa_opts.num_replicas = 16;
  sqa_opts.num_restarts = 2;
  auto annealed = SimulatedQuantumAnnealing(enc.value().qubo().ToIsing(),
                                            sqa_opts);
  ASSERT_TRUE(annealed.ok());
  std::vector<int> order =
      enc.value().Decode(SpinsToBits(annealed.value().best_spins));
  const double quantum_cost = CostOfLeftDeepOrder(g.value(), order).value();

  auto dp = OptimalLeftDeepPlan(g.value());
  ASSERT_TRUE(dp.ok());
  // Sanity ordering: optimal ≤ annealed; annealed within 100× of optimal
  // (the QUBO optimizes a log surrogate, so exact parity is not promised).
  EXPECT_GE(quantum_cost, dp.value().cost - 1e-6);
  EXPECT_LT(quantum_cost, 100.0 * dp.value().cost + 1e-6);
}

TEST(IntegrationTest, QaoaSolvesQuboFromDatabaseProblem) {
  // A tiny transaction-scheduling QUBO solved through the gate-model path
  // (QUBO → Ising → QAOA), not just the annealer.
  Qubo qubo(4);
  // Two txns × two slots: one-hot per txn + conflict on shared slots.
  const double penalty = 4.0;
  for (int t = 0; t < 2; ++t) {
    qubo.AddOffset(penalty);
    for (int s = 0; s < 2; ++s) qubo.AddLinear(2 * t + s, -penalty);
    qubo.AddQuadratic(2 * t, 2 * t + 1, 2.0 * penalty);
  }
  qubo.AddQuadratic(0, 2, penalty);  // Conflict in slot 0.
  qubo.AddQuadratic(1, 3, penalty);  // Conflict in slot 1.

  Qaoa qaoa(qubo.ToIsing(), /*layers=*/2);
  QaoaOptions opts;
  opts.restarts = 4;
  opts.seed = 7;
  opts.nelder_mead.max_iterations = 300;
  auto result = qaoa.Optimize(opts);
  ASSERT_TRUE(result.ok());
  // Best sampled solution: each transaction in its own slot → energy 0.
  EXPECT_NEAR(result.value().best_energy, 0.0, 1e-9);
  std::vector<uint8_t> bits = SpinsToBits(result.value().best_spins);
  EXPECT_EQ(bits[0] + bits[1], 1);
  EXPECT_EQ(bits[2] + bits[3], 1);
  EXPECT_NE(bits[0], bits[2]);  // Different slots.
}

TEST(IntegrationTest, QuantumKernelSvmGeneralizes) {
  // E3 end-to-end: train/test split, ZZ kernel, precomputed SVM, held-out
  // accuracy must beat chance clearly on circles data.
  Rng rng(5);
  Dataset all = MakeCircles(60, 0.08, 0.5, rng);
  auto [train, test] = TrainTestSplit(all, 0.3, rng);
  MinMaxScale(train, test, 0.0, M_PI);  // Fit scale on train first...
  MinMaxScale(train, train, 0.0, M_PI);

  FidelityQuantumKernel kernel = MakeZZFeatureMapKernel(1);
  auto gram = kernel.GramMatrix(train.features);
  ASSERT_TRUE(gram.ok());
  SvmOptions opts;
  opts.kernel = SvmKernel::kPrecomputed;
  opts.c = 20.0;
  auto svm = Svm::Train(train, opts, &gram.value());
  ASSERT_TRUE(svm.ok());

  auto cross = kernel.CrossMatrix(test.features, train.features);
  ASSERT_TRUE(cross.ok());
  std::vector<int> preds;
  for (size_t i = 0; i < test.size(); ++i) {
    DVector row(train.size());
    for (size_t j = 0; j < train.size(); ++j) {
      row[j] = cross.value()(i, j).real();
    }
    preds.push_back(svm.value().PredictFromKernelRow(row));
  }
  EXPECT_GE(Accuracy(test.labels, preds), 0.7);
}

TEST(IntegrationTest, VqcGeneralizesToHeldOutMoons) {
  Rng rng(9);
  Dataset all = MakeMoons(40, 0.1, rng);
  auto [train, test] = TrainTestSplit(all, 0.25, rng);
  MinMaxScale(train, test, 0.0, M_PI);
  MinMaxScale(train, train, 0.0, M_PI);
  VqcOptions opts;
  opts.encoding = VqcEncoding::kReuploading;
  opts.ansatz_layers = 2;
  opts.adam.max_iterations = 80;
  opts.adam.learning_rate = 0.15;
  auto model = VqcClassifier::Train(train, opts);
  ASSERT_TRUE(model.ok());
  std::vector<int> preds;
  for (const auto& x : test.features) {
    auto p = model.value().Predict(x);
    ASSERT_TRUE(p.ok());
    preds.push_back(p.value());
  }
  EXPECT_GE(Accuracy(test.labels, preds), 0.7);
}

TEST(IntegrationTest, SqaMatchesSaOnMaxCutQuality) {
  // E12 sanity: both annealers should reach the same (optimal) cut on a
  // moderate instance; the interesting differences are in time-to-solution,
  // measured by the bench, not here.
  Rng rng(13);
  WeightedGraph g = ErdosRenyiGraph(12, 0.4, rng);
  IsingModel ising = MaxCutIsing(g);
  SaOptions sa_opts;
  sa_opts.num_sweeps = 1500;
  sa_opts.num_restarts = 3;
  auto sa = SimulatedAnnealing(ising, sa_opts);
  SqaOptions sqa_opts;
  sqa_opts.num_sweeps = 800;
  sqa_opts.num_replicas = 16;
  sqa_opts.num_restarts = 2;
  auto sqa = SimulatedQuantumAnnealing(ising, sqa_opts);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sqa.ok());
  EXPECT_NEAR(sa.value().best_energy, sqa.value().best_energy, 1e-9);
}

TEST(IntegrationTest, ZneMitigatedNoisyBellPipeline) {
  // Noisy gates on a Bell pair, mitigated by zero-noise extrapolation.
  Circuit bell(2);
  bell.H(0).CX(0, 1);
  PauliSum zz(2);
  zz.Add(1.0, "ZZ");

  auto noise = NoiseModel::Depolarizing(0.005, 0.01);
  ASSERT_TRUE(noise.ok());
  DensitySimulator noisy_sim(noise.value());
  auto zne = ZeroNoiseExtrapolate(bell, zz, noisy_sim);
  ASSERT_TRUE(zne.ok());
  EXPECT_LT(std::abs(zne.value().mitigated - 1.0),
            std::abs(zne.value().unmitigated - 1.0));
}

TEST(IntegrationTest, GreedyVsDpVsAnnealerOrdering) {
  // Cost-ordering sanity across all three join-order solvers on stars.
  Rng rng(17);
  auto g = RandomQuery(QueryShape::kStar, 7, rng);
  ASSERT_TRUE(g.ok());
  auto dp = OptimalLeftDeepPlan(g.value());
  auto greedy = GreedyLeftDeepPlan(g.value());
  ASSERT_TRUE(dp.ok());
  ASSERT_TRUE(greedy.ok());

  auto enc = JoinOrderQubo::Create(g.value());
  ASSERT_TRUE(enc.ok());
  SaOptions opts;
  opts.num_sweeps = 1000;
  opts.num_restarts = 4;
  auto annealed = SimulatedAnnealing(enc.value().qubo().ToIsing(), opts);
  ASSERT_TRUE(annealed.ok());
  const double qcost = CostOfLeftDeepOrder(
      g.value(), enc.value().Decode(SpinsToBits(annealed.value().best_spins)))
                           .value();
  EXPECT_GE(greedy.value().cost, dp.value().cost - 1e-9);
  EXPECT_GE(qcost, dp.value().cost - 1e-9);
}

}  // namespace
}  // namespace qdb
