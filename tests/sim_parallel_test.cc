// Serial-vs-parallel equivalence for the simulator stack: every result that
// flows through the ThreadPool (amplitude kernels, batched runs, sampling,
// gradients, Gram matrices) must be bit-identical to the QDB_THREADS=1 run.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "autodiff/adjoint.h"
#include "autodiff/expectation.h"
#include "autodiff/parameter_shift.h"
#include "common/thread_pool.h"
#include "kernel/quantum_kernel.h"
#include "random_pauli_sum.h"
#include "sim/state_vector.h"
#include "sim/statevector_simulator.h"

namespace qdb {
namespace {

/// Sets the global pool width for one scope, restoring one lane on exit so
/// tests cannot leak parallelism into each other.
class ScopedThreads {
 public:
  explicit ScopedThreads(int n) { ThreadPool::SetGlobalThreads(n); }
  ~ScopedThreads() { ThreadPool::SetGlobalThreads(1); }
};

/// A 15-qubit circuit (dim 2^15, above kParallelAmplitudeThreshold) touching
/// every parallelized kernel family: dense 1Q, controlled 1Q, diagonal 1Q,
/// diagonal 2Q, and generic dense 2Q.
Circuit WideMixedCircuit() {
  const int n = 15;
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.H(q);
  for (int q = 0; q < n; ++q) c.RY(q, 0.1 * (q + 1));
  for (int q = 0; q + 1 < n; ++q) c.CX(q, q + 1);
  for (int q = 0; q < n; ++q) c.RZ(q, 0.05 * (q + 3));
  c.RZZ(0, 7, 0.4).RZZ(3, 11, -0.7);
  c.RXX(1, 8, 0.6).RYY(2, 9, 0.3);
  c.CRZ(4, 10, 0.9).CP(5, 12, -0.2);
  return c;
}

TEST(SimParallelTest, AmplitudesBitIdenticalSerialVsParallel) {
  const Circuit c = WideMixedCircuit();
  StateVectorSimulator sim;

  ThreadPool::SetGlobalThreads(1);
  auto serial = sim.Run(c);
  ASSERT_TRUE(serial.ok());

  ScopedThreads threads(4);
  auto parallel = sim.Run(c);
  ASSERT_TRUE(parallel.ok());

  ASSERT_EQ(serial.value().dim(), parallel.value().dim());
  for (uint64_t i = 0; i < serial.value().dim(); ++i) {
    ASSERT_EQ(serial.value().amplitude(i), parallel.value().amplitude(i))
        << "amplitude " << i;
  }
}

TEST(SimParallelTest, ReductionsBitIdenticalSerialVsParallel) {
  const Circuit c = WideMixedCircuit();
  StateVectorSimulator sim;
  const PauliString zz =
      PauliString::Parse("ZIIIZIIIIIIIIII").value();

  ThreadPool::SetGlobalThreads(1);
  auto s = sim.Run(c);
  ASSERT_TRUE(s.ok());
  const double p1_serial = s.value().ProbabilityOfOne(6);
  const double e_serial = Expectation(s.value(), zz);
  const DVector probs_serial = s.value().Probabilities();

  ScopedThreads threads(4);
  auto p = sim.Run(c);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p1_serial, p.value().ProbabilityOfOne(6));
  EXPECT_EQ(e_serial, Expectation(p.value(), zz));
  const DVector probs_parallel = p.value().Probabilities();
  ASSERT_EQ(probs_serial.size(), probs_parallel.size());
  for (size_t i = 0; i < probs_serial.size(); ++i) {
    ASSERT_EQ(probs_serial[i], probs_parallel[i]) << "probability " << i;
  }
}

TEST(SimParallelTest, PauliSumExpectationBitIdenticalSerialVsParallel) {
  // The batched Walsh sweep reduces per pool chunk in chunk order, so the
  // generated observables give the same bits at every width.
  const int n = 15;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    const StateVector s = RandomStateVector(n, rng);
    const PauliSum h = RandomPauliSum(n, 60, rng);

    ThreadPool::SetGlobalThreads(1);
    const double serial = Expectation(s, h);
    ScopedThreads threads(4);
    EXPECT_EQ(serial, Expectation(s, h)) << "seed " << seed;
  }
}

TEST(SimParallelTest, RunBatchMatchesSerialRunLoop) {
  StateVectorSimulator sim;
  std::vector<Circuit> circuits;
  for (int k = 0; k < 5; ++k) {
    Circuit c(3);
    c.H(0).RY(1, 0.2 * (k + 1)).CX(0, 2).RZ(2, ParamExpr::Variable(0));
    circuits.push_back(std::move(c));
  }
  const std::vector<DVector> params = {{0.3}, {0.6}, {0.9}, {1.2}, {1.5}};

  ScopedThreads threads(4);
  auto batch = sim.RunBatch(circuits, params);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), circuits.size());
  for (size_t k = 0; k < circuits.size(); ++k) {
    auto one = sim.Run(circuits[k], params[k]);
    ASSERT_TRUE(one.ok());
    for (uint64_t i = 0; i < one.value().dim(); ++i) {
      ASSERT_EQ(batch.value()[k].amplitude(i), one.value().amplitude(i));
    }
  }
}

TEST(SimParallelTest, RunBatchBroadcastRules) {
  StateVectorSimulator sim;
  Circuit c(2);
  c.RY(0, ParamExpr::Variable(0)).CX(0, 1);

  ScopedThreads threads(4);
  // One circuit, many parameter vectors.
  auto fan = sim.RunBatch({c}, {{0.1}, {0.2}, {0.3}});
  ASSERT_TRUE(fan.ok());
  EXPECT_EQ(fan.value().size(), 3u);
  // Mismatched multi-sizes must be rejected.
  Circuit d(2);
  d.H(0);
  EXPECT_FALSE(sim.RunBatch({c, d}, {{0.1}, {0.2}, {0.3}}).ok());
  // Empty batch is a no-op.
  auto empty = sim.RunBatch({}, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(SimParallelTest, SampleBatchDeterministicAcrossThreadCounts) {
  StateVectorSimulator sim;
  std::vector<Circuit> circuits;
  for (int k = 0; k < 4; ++k) {
    Circuit c(4);
    for (int q = 0; q < 4; ++q) c.H(q);
    c.RY(k % 4, 0.3 * (k + 1));
    circuits.push_back(std::move(c));
  }

  ThreadPool::SetGlobalThreads(1);
  Rng rng_serial(42);
  auto serial = sim.SampleBatch(circuits, {}, 500, rng_serial);
  ASSERT_TRUE(serial.ok());

  ScopedThreads threads(4);
  Rng rng_parallel(42);
  auto parallel = sim.SampleBatch(circuits, {}, 500, rng_parallel);
  ASSERT_TRUE(parallel.ok());

  ASSERT_EQ(serial.value().size(), parallel.value().size());
  for (size_t k = 0; k < serial.value().size(); ++k) {
    EXPECT_EQ(serial.value()[k], parallel.value()[k]) << "batch entry " << k;
  }
}

TEST(SimParallelTest, GradientsBitIdenticalAcrossThreadCounts) {
  Circuit c(4);
  int v = 0;
  for (int q = 0; q < 4; ++q) c.RY(q, ParamExpr::Variable(v++));
  for (int q = 0; q + 1 < 4; ++q) c.CX(q, q + 1);
  c.CRZ(0, 3, ParamExpr::Variable(v++));           // Four-term rule.
  c.RZZ(1, 2, ParamExpr::Variable(v++));           // Two-term, two-qubit.
  const PauliSum h = PauliSum(4).Add(1.0, "ZZII").Add(-0.5, "IIXX");
  ExpectationFunction f(std::move(c), h);
  const DVector theta = {0.3, -0.4, 0.8, 1.1, 0.6, -0.9};

  ThreadPool::SetGlobalThreads(1);
  auto ps_serial = ParameterShiftGradient(f, theta);
  auto fd_serial = FiniteDifferenceGradient(f, theta);
  auto ad_serial = AdjointGradient(f.circuit(), f.observable(), theta);
  ASSERT_TRUE(ps_serial.ok());
  ASSERT_TRUE(fd_serial.ok());
  ASSERT_TRUE(ad_serial.ok());

  ScopedThreads threads(4);
  auto ps = ParameterShiftGradient(f, theta);
  auto fd = FiniteDifferenceGradient(f, theta);
  auto ad = AdjointGradient(f.circuit(), f.observable(), theta);
  ASSERT_TRUE(ps.ok());
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(ad.ok());

  for (size_t k = 0; k < theta.size(); ++k) {
    EXPECT_EQ(ps_serial.value()[k], ps.value()[k]) << "param-shift " << k;
    EXPECT_EQ(fd_serial.value()[k], fd.value()[k]) << "finite-diff " << k;
    EXPECT_EQ(ad_serial.value().gradient[k], ad.value().gradient[k])
        << "adjoint " << k;
  }
  // Cross-check the two exact methods agree physically.
  for (size_t k = 0; k < theta.size(); ++k) {
    EXPECT_NEAR(ps.value()[k], ad.value().gradient[k], 1e-9);
  }
}

TEST(SimParallelTest, GramMatrixBitIdenticalAcrossThreadCounts) {
  const FidelityQuantumKernel kernel = MakeAngleKernel(1.0);
  const std::vector<DVector> xs = {
      {0.1, 0.9}, {0.5, -0.3}, {-0.7, 0.2}, {1.1, 0.4}, {-0.2, -0.8}};

  ThreadPool::SetGlobalThreads(1);
  auto serial = kernel.GramMatrix(xs);
  ASSERT_TRUE(serial.ok());

  ScopedThreads threads(4);
  auto parallel = kernel.GramMatrix(xs);
  ASSERT_TRUE(parallel.ok());
  auto cross = kernel.CrossMatrix(xs, xs);
  ASSERT_TRUE(cross.ok());

  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(serial.value()(i, i).real(), 1.0);
    for (size_t j = 0; j < xs.size(); ++j) {
      EXPECT_EQ(serial.value()(i, j), parallel.value()(i, j))
          << "entry " << i << "," << j;
      EXPECT_NEAR(cross.value()(i, j).real(), serial.value()(i, j).real(),
                  1e-12);
    }
  }
}

TEST(SimParallelTest, DenseGramMatrixBitIdenticalAcrossThreadCounts) {
  // A ZZ feature map entangles, so every point runs its encoding circuit
  // and each entry overlaps two 2^8-amplitude states: the encoding batch
  // and the row fill both fan out at 4 threads.
  const FidelityQuantumKernel kernel = MakeZZFeatureMapKernel(2);
  std::vector<DVector> xs(12, DVector(8));
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t q = 0; q < 8; ++q) xs[i][q] = 0.13 * (i + 1) + 0.29 * q;
  }

  ThreadPool::SetGlobalThreads(1);
  auto serial = kernel.GramMatrix(xs);
  ASSERT_TRUE(serial.ok());
  auto serial_cross = kernel.CrossMatrix({xs[2], xs[7]}, xs);
  ASSERT_TRUE(serial_cross.ok());

  ScopedThreads threads(4);
  auto parallel = kernel.GramMatrix(xs);
  ASSERT_TRUE(parallel.ok());
  auto parallel_cross = kernel.CrossMatrix({xs[2], xs[7]}, xs);
  ASSERT_TRUE(parallel_cross.ok());

  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(serial.value()(i, i).real(), 1.0);
    for (size_t j = 0; j < xs.size(); ++j) {
      EXPECT_EQ(serial.value()(i, j), parallel.value()(i, j))
          << "entry " << i << "," << j;
    }
  }
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < xs.size(); ++j) {
      EXPECT_EQ(serial_cross.value()(i, j), parallel_cross.value()(i, j))
          << "cross entry " << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace qdb
