// Tests for StateVector: construction, kernels, measurement, sampling.

#include <gtest/gtest.h>

#include <cmath>

#include "common/thread_pool.h"
#include "random_pauli_sum.h"
#include "sim/state_vector.h"
#include "sim/statevector_simulator.h"

namespace qdb {
namespace {

constexpr double kInvSqrt2 = 0.70710678118654752440;

TEST(StateVectorTest, InitializesToAllZeros) {
  StateVector s(3);
  EXPECT_EQ(s.num_qubits(), 3);
  EXPECT_EQ(s.dim(), 8u);
  EXPECT_EQ(s.amplitude(0), Complex(1, 0));
  for (uint64_t i = 1; i < 8; ++i) EXPECT_EQ(s.amplitude(i), Complex(0, 0));
}

TEST(StateVectorTest, BasisState) {
  StateVector s = StateVector::BasisState(2, 3);
  EXPECT_EQ(s.amplitude(3), Complex(1, 0));
  EXPECT_EQ(s.amplitude(0), Complex(0, 0));
}

TEST(StateVectorTest, FromAmplitudesValidation) {
  EXPECT_FALSE(StateVector::FromAmplitudes({}).ok());
  EXPECT_FALSE(
      StateVector::FromAmplitudes({{1, 0}, {0, 0}, {0, 0}}).ok());  // size 3
  EXPECT_FALSE(StateVector::FromAmplitudes({{2, 0}, {0, 0}}).ok());  // norm 2
  auto ok = StateVector::FromAmplitudes({{kInvSqrt2, 0}, {0, kInvSqrt2}});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().num_qubits(), 1);
}

TEST(StateVectorTest, FromAmplitudesRejectsSingleAmplitude) {
  // Regression: a length-1 vector is a power of two and has unit norm, but
  // zero qubits means dim() = 2 while only one amplitude is stored — every
  // kernel would then read past the end of the buffer.
  auto r = StateVector::FromAmplitudes({{1, 0}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(StateVectorTest, SampleOnceMatchesSampleCountsWhenSubNormalized) {
  // Regression: SampleOnce used to draw the target against a unit mass while
  // the CDF only summed to |ψ|² < 1, skewing (or never terminating) draws on
  // sub-normalized states. Both samplers must agree on the renormalized
  // distribution P(i) = |a_i|²/Σ|a_j|².
  const double a0 = std::sqrt(0.5), a1 = 0.4;  // Σ|a|² = 0.66.
  auto r = StateVector::FromAmplitudes({{a0, 0}, {a1, 0}}, /*norm_tol=*/0.5);
  ASSERT_TRUE(r.ok());
  const StateVector& s = r.value();
  const double p0 = (a0 * a0) / (a0 * a0 + a1 * a1);  // ≈ 0.7576.

  Rng rng_once(11);
  int zeros = 0;
  const int shots = 20000;
  for (int i = 0; i < shots; ++i) zeros += (s.SampleOnce(rng_once) == 0);
  EXPECT_NEAR(zeros / static_cast<double>(shots), p0, 0.02);

  Rng rng_counts(13);
  auto counts = s.SampleCounts(rng_counts, shots);
  EXPECT_NEAR(counts[0] / static_cast<double>(shots), p0, 0.02);
}

TEST(StateVectorTest, HadamardOnQubitZero) {
  StateVector s(2);
  const Matrix h = GateMatrix(GateType::kH, {});
  s.Apply1Q(0, h);
  // Qubit 0 is the high bit: |00⟩ → (|00⟩ + |10⟩)/√2 = indices 0 and 2.
  EXPECT_NEAR(s.amplitude(0).real(), kInvSqrt2, 1e-12);
  EXPECT_NEAR(s.amplitude(2).real(), kInvSqrt2, 1e-12);
  EXPECT_NEAR(std::abs(s.amplitude(1)), 0.0, 1e-12);
}

TEST(StateVectorTest, BellStateConstruction) {
  StateVector s(2);
  s.Apply1Q(0, GateMatrix(GateType::kH, {}));
  s.ApplyControlled1Q(0, 1, {0, 0}, {1, 0}, {1, 0}, {0, 0});  // CX
  EXPECT_NEAR(s.Probability(0), 0.5, 1e-12);
  EXPECT_NEAR(s.Probability(3), 0.5, 1e-12);
  EXPECT_NEAR(s.Probability(1), 0.0, 1e-12);
  EXPECT_NEAR(s.Probability(2), 0.0, 1e-12);
}

TEST(StateVectorTest, DiagonalKernelsMatchDense) {
  StateVector a(2), b(2);
  a.Apply1Q(0, GateMatrix(GateType::kH, {}));
  b.Apply1Q(0, GateMatrix(GateType::kH, {}));
  const double theta = 0.9;
  a.ApplyDiagonal1Q(1, std::exp(Complex(0, -theta / 2)),
                    std::exp(Complex(0, theta / 2)));
  b.Apply1Q(1, GateMatrix(GateType::kRZ, {theta}));
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::abs(a.amplitude(i) - b.amplitude(i)), 0.0, 1e-12);
  }
}

TEST(StateVectorTest, SwapExchangesQubits) {
  StateVector s = StateVector::BasisState(3, 0b100);  // qubit 0 = 1.
  s.ApplySwap(0, 2);
  EXPECT_EQ(s.amplitude(0b001), Complex(1, 0));  // qubit 2 = 1 now.
}

TEST(StateVectorTest, Apply2QGenericMatchesKron) {
  // Apply a 4x4 on (0, 1) of a 2-qubit register: equals direct matvec.
  const Matrix u = GateMatrix(GateType::kRXX, {0.8});
  StateVector s(2);
  s.Apply1Q(0, GateMatrix(GateType::kH, {}));
  s.Apply1Q(1, GateMatrix(GateType::kRY, {0.4}));
  CVector direct = u.Apply(s.ToAmplitudes());
  s.Apply2Q(0, 1, u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::abs(s.amplitude(i) - direct[i]), 0.0, 1e-12);
  }
}

TEST(StateVectorTest, Apply2QReversedOperandsMatchesSwappedKron) {
  // Gate on (1, 0): conjugate the matrix by SWAP and compare.
  const Matrix u = GateMatrix(GateType::kCX, {});
  const Matrix swap = GateMatrix(GateType::kSwap, {});
  StateVector s(2);
  s.Apply1Q(0, GateMatrix(GateType::kH, {}));
  s.Apply1Q(1, GateMatrix(GateType::kH, {}));
  s.Apply1Q(1, GateMatrix(GateType::kT, {}));
  CVector direct = (swap * u * swap).Apply(s.ToAmplitudes());
  s.Apply2Q(1, 0, u);
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(std::abs(s.amplitude(i) - direct[i]), 0.0, 1e-12);
  }
}

TEST(StateVectorTest, MCXFlipsOnlyWhenAllControlsSet) {
  StateVector s = StateVector::BasisState(3, 0b110);
  s.ApplyMCX({0, 1}, 2);
  EXPECT_EQ(s.amplitude(0b111), Complex(1, 0));
  StateVector t = StateVector::BasisState(3, 0b100);
  t.ApplyMCX({0, 1}, 2);
  EXPECT_EQ(t.amplitude(0b100), Complex(1, 0));  // Unchanged.
}

TEST(StateVectorTest, MCZPhasesAllOnesOnly) {
  StateVector s(2);
  s.Apply1Q(0, GateMatrix(GateType::kH, {}));
  s.Apply1Q(1, GateMatrix(GateType::kH, {}));
  s.ApplyMCZ({0}, 1);
  EXPECT_NEAR(s.amplitude(3).real(), -0.5, 1e-12);
  EXPECT_NEAR(s.amplitude(0).real(), 0.5, 1e-12);
}

TEST(StateVectorTest, ApplyKQMatchesDenseOnThreeQubits) {
  const Matrix ccx = GateMatrix(GateType::kCCX, {});
  StateVector s(3);
  s.Apply1Q(0, GateMatrix(GateType::kH, {}));
  s.Apply1Q(1, GateMatrix(GateType::kH, {}));
  s.Apply1Q(2, GateMatrix(GateType::kRY, {0.3}));
  CVector direct = ccx.Apply(s.ToAmplitudes());
  s.ApplyKQ({0, 1, 2}, ccx);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(std::abs(s.amplitude(i) - direct[i]), 0.0, 1e-12);
  }
}

TEST(StateVectorTest, ProbabilityOfOne) {
  StateVector s(2);
  s.Apply1Q(1, GateMatrix(GateType::kRY, {M_PI / 2}));
  EXPECT_NEAR(s.ProbabilityOfOne(1), 0.5, 1e-12);
  EXPECT_NEAR(s.ProbabilityOfOne(0), 0.0, 1e-12);
}

TEST(StateVectorTest, MeasureQubitCollapses) {
  Rng rng(3);
  StateVector s(2);
  s.Apply1Q(0, GateMatrix(GateType::kH, {}));
  const int outcome = s.MeasureQubit(0, rng);
  EXPECT_NEAR(s.ProbabilityOfOne(0), outcome, 1e-12);
  EXPECT_NEAR(s.NormValue(), 1.0, 1e-12);
}

TEST(StateVectorTest, MeasureAllCollapsesToBasisState) {
  Rng rng(5);
  StateVector s(3);
  for (int q = 0; q < 3; ++q) s.Apply1Q(q, GateMatrix(GateType::kH, {}));
  const uint64_t outcome = s.MeasureAll(rng);
  EXPECT_EQ(s.amplitude(outcome), Complex(1, 0));
  EXPECT_NEAR(s.NormValue(), 1.0, 1e-12);
}

TEST(StateVectorTest, SamplingMatchesProbabilities) {
  Rng rng(7);
  StateVector s(1);
  s.Apply1Q(0, GateMatrix(GateType::kRY, {2.0 * std::acos(std::sqrt(0.7))}));
  // P(0) = 0.7 by construction.
  auto counts = s.SampleCounts(rng, 20000);
  EXPECT_NEAR(counts[0] / 20000.0, 0.7, 0.02);
}

TEST(StateVectorTest, SampleCountsTotalsShots) {
  Rng rng(9);
  StateVector s(3);
  for (int q = 0; q < 3; ++q) s.Apply1Q(q, GateMatrix(GateType::kH, {}));
  auto counts = s.SampleCounts(rng, 1000);
  int total = 0;
  for (const auto& [_, c] : counts) total += c;
  EXPECT_EQ(total, 1000);
}

TEST(StateVectorTest, SampleOnceMatchesLinearScanReference) {
  // Regression: SampleOnce used an O(2^n) linear scan per draw. It now shares
  // the prefix-sum CDF + upper_bound path with SampleCounts; for the same Rng
  // stream the sampled outcomes must be identical to the old scan's
  // ("first index with target < running sum", falling back to dim()-1).
  StateVector s(6);
  for (int q = 0; q < 6; ++q) {
    s.Apply1Q(q, GateMatrix(GateType::kH, {}));
    s.Apply1Q(q, GateMatrix(GateType::kRY, {0.3 + 0.17 * q}));
  }
  DVector probs = s.Probabilities();
  double total = 0.0;
  for (double p : probs) total += p;

  Rng rng_cdf(12345), rng_ref(12345);
  for (int t = 0; t < 500; ++t) {
    const uint64_t got = s.SampleOnce(rng_cdf);
    const double target = rng_ref.Uniform() * total;
    double acc = 0.0;
    uint64_t expected = s.dim() - 1;
    for (uint64_t i = 0; i < s.dim(); ++i) {
      acc += probs[i];
      if (target < acc) {
        expected = i;
        break;
      }
    }
    ASSERT_EQ(got, expected) << "draw " << t;
  }
}

TEST(StateVectorTest, MeasureQubitSerialParallelBitIdentical) {
  // Regression: the fused collapse + norm pass must give bit-identical
  // results at every thread width (deterministic chunking), at a size above
  // kParallelAmplitudeThreshold so the parallel path actually engages.
  const int n = 15;  // 2^15 amplitudes > threshold of 2^14.
  auto prepare = [&] {
    StateVector s(n);
    for (int q = 0; q < n; ++q) {
      s.Apply1Q(q, GateMatrix(GateType::kH, {}));
      s.Apply1Q(q, GateMatrix(GateType::kRY, {0.1 + 0.05 * q}));
      s.Apply1Q(q, GateMatrix(GateType::kRZ, {0.2 + 0.03 * q}));
    }
    return s;
  };

  ThreadPool::SetGlobalThreads(1);
  StateVector serial = prepare();
  Rng rng_serial(77);
  const int outcome_serial = serial.MeasureQubit(3, rng_serial);

  ThreadPool::SetGlobalThreads(4);
  StateVector parallel = prepare();
  Rng rng_parallel(77);
  const int outcome_parallel = parallel.MeasureQubit(3, rng_parallel);
  ThreadPool::SetGlobalThreads(1);

  ASSERT_EQ(outcome_serial, outcome_parallel);
  const double* sr = serial.reals();
  const double* si = serial.imags();
  const double* pr = parallel.reals();
  const double* pi = parallel.imags();
  for (uint64_t i = 0; i < serial.dim(); ++i) {
    ASSERT_EQ(sr[i], pr[i]) << "re mismatch at " << i;
    ASSERT_EQ(si[i], pi[i]) << "im mismatch at " << i;
  }
}

TEST(StateVectorTest, BitStringRendering) {
  StateVector s(4);
  EXPECT_EQ(s.BitString(0b1010), "1010");
  EXPECT_EQ(s.BitString(0), "0000");
}

TEST(StateVectorTest, InnerProductWith) {
  StateVector a(1);
  StateVector b(1);
  b.Apply1Q(0, GateMatrix(GateType::kH, {}));
  EXPECT_NEAR(std::abs(a.InnerProductWith(b)), kInvSqrt2, 1e-12);
}

TEST(ExpectationTest, SingleQubitZ) {
  StateVector s(1);
  EXPECT_NEAR(ExpectationZ(s, 0), 1.0, 1e-12);
  s.Apply1Q(0, GateMatrix(GateType::kX, {}));
  EXPECT_NEAR(ExpectationZ(s, 0), -1.0, 1e-12);
}

TEST(ExpectationTest, PauliStringOnBellState) {
  StateVector s(2);
  s.Apply1Q(0, GateMatrix(GateType::kH, {}));
  s.ApplyControlled1Q(0, 1, {0, 0}, {1, 0}, {1, 0}, {0, 0});
  // Bell state: ⟨XX⟩ = ⟨ZZ⟩ = 1, ⟨YY⟩ = −1, ⟨ZI⟩ = 0.
  EXPECT_NEAR(Expectation(s, PauliString::Parse("XX").value()), 1.0, 1e-12);
  EXPECT_NEAR(Expectation(s, PauliString::Parse("ZZ").value()), 1.0, 1e-12);
  EXPECT_NEAR(Expectation(s, PauliString::Parse("YY").value()), -1.0, 1e-12);
  EXPECT_NEAR(Expectation(s, PauliString::Parse("ZI").value()), 0.0, 1e-12);
}

TEST(ExpectationTest, PauliSumCombinesTerms) {
  StateVector s(2);
  PauliSum h(2);
  h.Add(0.5, "ZI").Add(-2.0, "IZ").Add(3.0, "II");
  // |00⟩: ⟨ZI⟩ = ⟨IZ⟩ = 1 → 0.5 − 2 + 3 = 1.5.
  EXPECT_NEAR(Expectation(s, h), 1.5, 1e-12);
}

TEST(ExpectationTest, PauliSumMatchesPerTermSum) {
  // Differential check of the X-mask-batched Walsh sweep against the
  // reference it replaced: one single-string sweep per term. n = 11 is
  // exactly one Walsh block, 12 two, 15 runs on the pool's chunking.
  for (int n : {1, 3, 11, 12, 15}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(1000 * n + seed);
      const StateVector s = RandomStateVector(n, rng);
      const PauliSum h = RandomPauliSum(n, 40, rng);
      double reference = 0.0;
      double scale = 0.0;
      for (const PauliTerm& t : h.terms()) {
        reference += t.coefficient * Expectation(s, t.pauli);
        scale += std::abs(t.coefficient);
      }
      EXPECT_NEAR(Expectation(s, h), reference, 1e-12 * scale)
          << "n=" << n << " seed=" << seed;
    }
  }
}

}  // namespace
}  // namespace qdb
