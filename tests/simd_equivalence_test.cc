// Scalar-vs-AVX2 dispatch equivalence: every gate kernel, probability
// reduction, the deterministic sin/cos, and the tile-parallel compiled
// executor must produce bit-identical results at every SIMD level and thread
// width, at sizes on both sides of kParallelAmplitudeThreshold. The kernels
// are written to the same-operations/same-order contract (sim/kernels.h);
// this test is the enforcement.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/random_unitary.h"
#include "random_pauli_sum.h"
#include "sim/compiled_circuit.h"
#include "sim/kernels.h"
#include "sim/simd.h"
#include "sim/state_vector.h"
#include "sim/statevector_simulator.h"
#include "sim/walsh.h"

namespace qdb {
namespace {

/// Restores auto-resolved dispatch and single-threaded execution however a
/// test exits.
class DispatchGuard {
 public:
  ~DispatchGuard() {
    simd::ResetSimdLevel();
    ThreadPool::SetGlobalThreads(1);
  }
};

struct Config {
  simd::SimdLevel level;
  int threads;
};

/// The non-scalar configurations to compare against the scalar/1-thread
/// baseline. AVX2 configs are dropped when the CPU lacks it (the dispatch
/// refuses the override), so the test degrades to a thread-width sweep.
std::vector<Config> ComparisonConfigs() {
  std::vector<Config> configs = {{simd::SimdLevel::kScalar, 4}};
  if (simd::SetActiveSimdLevel(simd::SimdLevel::kAvx2)) {
    configs.push_back({simd::SimdLevel::kAvx2, 1});
    configs.push_back({simd::SimdLevel::kAvx2, 4});
  }
  simd::SetActiveSimdLevel(simd::SimdLevel::kScalar);
  return configs;
}

/// Applies a deterministic sequence covering every StateVector kernel at
/// strides that exercise both the vectorized bodies and their small-stride
/// scalar fallbacks (qubit 0 = MSB ⇒ largest stride; qubit n-1 ⇒ stride 1).
void ApplyKernelSweep(StateVector& s) {
  const int n = s.num_qubits();
  Rng mats(4242);  // Same seed every call: identical unitaries everywhere.
  const Matrix u4 = RandomUnitary(4, mats);
  const Matrix u8 = RandomUnitary(8, mats);
  const Matrix h = GateMatrix(GateType::kH, {});

  for (int q = 0; q < n; ++q) s.Apply1Q(q, h);
  // Dense 1Q: vector path (large stride) and scalar fallback (stride < 4).
  s.Apply1Q(0, GateMatrix(GateType::kRY, {0.37}));
  s.Apply1Q(n - 1, GateMatrix(GateType::kRY, {0.53}));
  s.Apply1Q(n - 2, GateMatrix(GateType::kRX, {0.29}));
  // Diagonal 1Q at both extremes (predicated vector body handles any mask).
  s.ApplyDiagonal1Q(0, Complex(std::cos(0.3), std::sin(0.3)), Complex(1, 0));
  s.ApplyDiagonal1Q(n - 1, Complex(1, 0), Complex(std::cos(0.7), std::sin(0.7)));
  // Controlled 1Q: control above target (vector path), control below target
  // (scalar fallback), target stride < 4 (scalar fallback).
  s.ApplyControlled1Q(0, 2, Complex(0, 0), Complex(1, 0), Complex(1, 0),
                      Complex(0, 0));
  s.ApplyControlled1Q(n - 1, 0, Complex(std::cos(0.2), std::sin(0.2)),
                      Complex(0, 0), Complex(0, 0), Complex(1, 0));
  s.ApplyControlled1Q(0, n - 1, Complex(1, 0), Complex(0, 0), Complex(0, 0),
                      Complex(std::cos(0.4), std::sin(0.4)));
  // Diagonal 2Q at both extremes.
  s.ApplyDiagonal2Q(0, 1, Complex(1, 0), Complex(0, 1), Complex(-1, 0),
                    Complex(0, -1));
  s.ApplyDiagonal2Q(n - 2, n - 1, Complex(1, 0), Complex(1, 0), Complex(1, 0),
                    Complex(-1, 0));
  // Dense 2Q: quad-contiguous vector path (both operands high) and the
  // lo_pos < 2 scalar fallback (operand at the LSB end).
  s.Apply2Q(0, 1, u4);
  s.Apply2Q(n - 2, n - 1, u4);
  s.Apply2Q(1, n - 1, u4);
  // Serial kernels ride along so the sweep covers the whole gate surface.
  s.ApplySwap(0, n - 1);
  s.ApplyMCX({0, 1}, 2);
  s.ApplyMCZ({0}, 1);
  s.ApplyKQ({0, 1, 2}, u8);
}

/// Fails unless both states have bit-identical planes.
void ExpectBitIdentical(const StateVector& a, const StateVector& b,
                        const char* what) {
  ASSERT_EQ(a.dim(), b.dim());
  const double* ar = a.reals();
  const double* ai = a.imags();
  const double* br = b.reals();
  const double* bi = b.imags();
  for (uint64_t i = 0; i < a.dim(); ++i) {
    ASSERT_EQ(ar[i], br[i]) << what << ": re mismatch at index " << i;
    ASSERT_EQ(ai[i], bi[i]) << what << ": im mismatch at index " << i;
  }
}

// 13 qubits (2^13 amps) stays below kParallelAmplitudeThreshold = 2^14;
// 15 qubits sits above it, so both serial and pooled kernel paths run.
class SimdEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(SimdEquivalenceTest, GateKernelsBitIdenticalAcrossDispatch) {
  DispatchGuard guard;
  const int n = GetParam();

  ASSERT_TRUE(simd::SetActiveSimdLevel(simd::SimdLevel::kScalar));
  ThreadPool::SetGlobalThreads(1);
  StateVector baseline(n);
  ApplyKernelSweep(baseline);
  const DVector base_probs = baseline.Probabilities();
  const double base_p1 = baseline.ProbabilityOfOne(1);
  const double base_norm = baseline.NormValue();

  for (const Config& config : ComparisonConfigs()) {
    ASSERT_TRUE(simd::SetActiveSimdLevel(config.level));
    ThreadPool::SetGlobalThreads(config.threads);
    StateVector other(n);
    ApplyKernelSweep(other);
    const std::string what =
        std::string(simd::SimdLevelName(config.level)) + "/t" +
        std::to_string(config.threads);
    ExpectBitIdentical(baseline, other, what.c_str());

    const DVector probs = other.Probabilities();
    for (uint64_t i = 0; i < other.dim(); ++i) {
      ASSERT_EQ(base_probs[i], probs[i]) << what << ": prob at " << i;
    }
    ASSERT_EQ(base_p1, other.ProbabilityOfOne(1)) << what;
    ASSERT_EQ(base_norm, other.NormValue()) << what;
  }
}

TEST_P(SimdEquivalenceTest, MeasurementCollapseBitIdenticalAcrossDispatch) {
  DispatchGuard guard;
  const int n = GetParam();

  ASSERT_TRUE(simd::SetActiveSimdLevel(simd::SimdLevel::kScalar));
  ThreadPool::SetGlobalThreads(1);
  StateVector baseline(n);
  ApplyKernelSweep(baseline);
  Rng rng_base(99);
  const int outcome_base = baseline.MeasureQubit(2, rng_base);

  for (const Config& config : ComparisonConfigs()) {
    ASSERT_TRUE(simd::SetActiveSimdLevel(config.level));
    ThreadPool::SetGlobalThreads(config.threads);
    StateVector other(n);
    ApplyKernelSweep(other);
    Rng rng(99);
    const int outcome = other.MeasureQubit(2, rng);
    const std::string what =
        std::string("measure ") + simd::SimdLevelName(config.level) + "/t" +
        std::to_string(config.threads);
    ASSERT_EQ(outcome_base, outcome) << what;
    ExpectBitIdentical(baseline, other, what.c_str());
  }
}

TEST_P(SimdEquivalenceTest, PauliSumExpectationBitIdenticalAcrossDispatch) {
  DispatchGuard guard;
  const int n = GetParam();
  Rng rng(n);
  const PauliSum h = RandomPauliSum(n, 60, rng);

  ASSERT_TRUE(simd::SetActiveSimdLevel(simd::SimdLevel::kScalar));
  ThreadPool::SetGlobalThreads(1);
  StateVector baseline(n);
  ApplyKernelSweep(baseline);
  const double base = Expectation(baseline, h);

  for (const Config& config : ComparisonConfigs()) {
    ASSERT_TRUE(simd::SetActiveSimdLevel(config.level));
    ThreadPool::SetGlobalThreads(config.threads);
    StateVector other(n);
    ApplyKernelSweep(other);
    ASSERT_EQ(base, Expectation(other, h))
        << "expectation " << simd::SimdLevelName(config.level) << "/t"
        << config.threads;
  }
}

INSTANTIATE_TEST_SUITE_P(BelowAndAboveParallelThreshold, SimdEquivalenceTest,
                         ::testing::Values(13, 15));

/// Phases a sweep of SinCosRange feeds through: a dense grid over [−lim, lim]
/// plus the values where reduction is hardest — near multiples of π/4 and
/// π/2, at the ends of the reduced range, and tiny arguments.
std::vector<double> SinCosInputs(double lim, size_t count) {
  std::vector<double> x;
  x.reserve(count + 64);
  for (size_t i = 0; i < count; ++i) {
    x.push_back(-lim + 2.0 * lim * (static_cast<double>(i) + 0.5) / count);
  }
  for (int k = -8; k <= 8; ++k) {
    const double base = k * M_PI / 4;
    for (double d : {0.0, 1e-12, -1e-12, 1e-17}) x.push_back(base + d);
  }
  for (double v : {0.0, -0.0, 1e-300, -1e-300, 4.9e-324, 1e6, -1e6,
                   std::nextafter(1e6, 0.0), 355.0, 103993.0}) {
    x.push_back(v);
  }
  return x;
}

TEST(SinCosRangeTest, ErrorAgainstLibmIsBounded) {
  // Dense sweeps at growing magnitude up to the reduction's bound. The
  // fdlibm kernels are faithful on [−π/4, π/4] and the three-part
  // Cody–Waite reduction loses under an ulp of r, so the result stays
  // within ~1 ulp of 1 of libm's.
  for (double lim : {1.0, 10.0, 1e3, 1e6}) {
    const std::vector<double> x = SinCosInputs(lim, 1 << 18);
    std::vector<double> sn(x.size()), cs(x.size());
    simd::SinCosRangeScalar(x.data(), sn.data(), cs.data(), x.size());
    double worst = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      worst = std::max(worst, std::abs(sn[i] - std::sin(x[i])));
      worst = std::max(worst, std::abs(cs[i] - std::cos(x[i])));
    }
    EXPECT_LE(worst, 2.5e-16) << "|x| <= " << lim;
  }
}

TEST(SinCosRangeTest, ScalarAndAvx2AgreeBitwiseIncludingFallback) {
  DispatchGuard guard;
  if (!simd::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  // In-range values, values past kMaxArg (libm on both levels), NaN and
  // ±Inf, interleaved so vectors mix in- and out-of-range lanes, at a
  // length that leaves a scalar tail.
  std::vector<double> x = SinCosInputs(2e6, (1 << 20) + 3);
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {std::nan(""), inf, -inf, 1e300, -3e7}) {
    x.insert(x.begin() + 5, v);
    x.push_back(v);
  }
  std::vector<double> s_scalar(x.size()), c_scalar(x.size());
  std::vector<double> s_avx2(x.size()), c_avx2(x.size());
  simd::SinCosRange(simd::SimdLevel::kScalar, x.data(), s_scalar.data(),
                    c_scalar.data(), x.size());
  simd::SinCosRange(simd::SimdLevel::kAvx2, x.data(), s_avx2.data(),
                    c_avx2.data(), x.size());
  size_t fallback = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(std::memcmp(&s_scalar[i], &s_avx2[i], sizeof(double)), 0)
        << "sin(" << x[i] << ")";
    ASSERT_EQ(std::memcmp(&c_scalar[i], &c_avx2[i], sizeof(double)), 0)
        << "cos(" << x[i] << ")";
    if (!(std::abs(x[i]) <= simd::sincos::kMaxArg)) {
      ++fallback;
      // Beyond the bound both levels are libm's.
      const double s = std::sin(x[i]), c = std::cos(x[i]);
      ASSERT_EQ(std::memcmp(&s_scalar[i], &s, sizeof(double)), 0);
      ASSERT_EQ(std::memcmp(&c_scalar[i], &c, sizeof(double)), 0);
    }
  }
  EXPECT_GT(fallback, x.size() / 4);
}

TEST(WalshHadamardTest, ScalarAndAvx2AgreeBitwise) {
  if (!simd::CpuSupportsAvx2()) GTEST_SKIP() << "no AVX2 on this CPU";
  Rng rng(23);
  for (int bits = 0; bits <= 13; ++bits) {
    std::vector<double> scalar(size_t{1} << bits);
    for (double& v : scalar) v = rng.Uniform(-3.0, 3.0);
    std::vector<double> avx2 = scalar;
    simd::WalshHadamard(simd::SimdLevel::kScalar, scalar.data(), bits);
    simd::WalshHadamard(simd::SimdLevel::kAvx2, avx2.data(), bits);
    for (size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_EQ(std::memcmp(&scalar[i], &avx2[i], sizeof(double)), 0)
          << "bits " << bits << " entry " << i;
    }
  }
  // The transform is its own inverse up to 2^bits.
  std::vector<double> t = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  simd::WalshHadamard(simd::SimdLevel::kAvx2, t.data(), 3);
  EXPECT_EQ(t[0], 36.0);
  EXPECT_EQ(t[1], -4.0);
  EXPECT_EQ(t[7], 0.0);
  simd::WalshHadamard(simd::SimdLevel::kAvx2, t.data(), 3);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 8.0 * (i + 1));
}

/// A dense brick-pattern circuit whose lowered ops include long blockable
/// runs plus MSB-operand barriers, mirroring the benchmark workload.
Circuit BrickCircuit(int n, int layers) {
  Circuit c(n);
  Rng rng(7);
  for (int l = 0; l < layers; ++l) {
    for (int q = 0; q < n; ++q) {
      c.RX(q, rng.Uniform() * 3.0);
      c.RY(q, rng.Uniform() * 3.0);
      c.H(q);
    }
    for (int q = l % 2; q + 1 < n; q += 2) c.CX(q, q + 1);
  }
  return c;
}

TEST(CacheBlockedExecutionTest, BlockedReplayMatchesStreamingBitwise) {
  DispatchGuard guard;
  // 17 qubits: the state holds 2^(17 - kReplayTileBits) replay tiles, so
  // compiled replay runs its tiled path while streaming applies ops one at
  // a time over the full state. Without fusion both execute the identical
  // op list, so amplitudes must match bit for bit — at every dispatch
  // config.
  const int n = 17;
  ASSERT_LT(kReplayTileBits, n);
  const Circuit circuit = BrickCircuit(n, 2);

  const CompiledCircuit compiled =
      CompiledCircuit::Compile(circuit, CompileOptions{/*fuse=*/false});

  std::vector<Config> configs = {{simd::SimdLevel::kScalar, 1}};
  for (const Config& c : ComparisonConfigs()) configs.push_back(c);
  for (const Config& config : configs) {
    ASSERT_TRUE(simd::SetActiveSimdLevel(config.level));
    ThreadPool::SetGlobalThreads(config.threads);

    StateVector streamed(n);
    ASSERT_TRUE(StateVectorSimulator().RunStreamed(circuit, streamed).ok());
    StateVector blocked(n);
    ASSERT_TRUE(compiled.Execute(blocked, {}).ok());

    const std::string what =
        std::string("blocked ") + simd::SimdLevelName(config.level) + "/t" +
        std::to_string(config.threads);
    ExpectBitIdentical(streamed, blocked, what.c_str());
  }
}

/// The H layer, `cost_gates` parametric RZ/RZZ gates on seeded operands
/// (one kDiagonalRun once fused) and the RX mixer: a p=1 QAOA program.
Circuit QaoaShapedCircuit(int n, int cost_gates) {
  Rng rng(static_cast<uint64_t>(n));
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.H(q);
  for (int k = 0; k < cost_gates; ++k) {
    const int a = static_cast<int>(rng.UniformInt(uint64_t(n)));
    const int b =
        (a + 1 + static_cast<int>(rng.UniformInt(uint64_t(n - 1)))) % n;
    const double scale = rng.Uniform(-2.0, 2.0);
    if (k % 4 == 0) {
      c.RZ(a, ParamExpr::Affine(0, scale, 0.0));
    } else {
      c.RZZ(a, b, ParamExpr::Affine(0, scale, 0.0));
    }
  }
  for (int q = 0; q < n; ++q) c.RX(q, ParamExpr::Affine(1, 2.0, 0.0));
  return c;
}

TEST(CacheBlockedExecutionTest, TiledReplayMatchesOpAtATimeBitwise) {
  DispatchGuard guard;
  // Tile runs must give the bits of op-at-a-time replay (tiles as wide as
  // the state never engage) at every tile size, on programs that start with
  // a product prefix, carry a diagonal run and end in a 1Q layer, and on
  // brick circuits with fused 2Q ops on low and high qubits.
  ThreadPool::SetGlobalThreads(4);
  for (const int n : {14, 15, 16}) {
    for (const Circuit& circuit :
         {QaoaShapedCircuit(n, 60), BrickCircuit(n, 2)}) {
      const CompiledCircuit program = CompiledCircuit::Compile(circuit);
      const DVector params = {0.37, -1.1};
      StateVector op_at_a_time(n);
      ASSERT_TRUE(program.ExecuteWithTileBits(op_at_a_time, params, n).ok());
      for (int tile_bits = kWalshBlockBits; tile_bits < n; ++tile_bits) {
        StateVector tiled(n);
        ASSERT_TRUE(program.ExecuteWithTileBits(tiled, params, tile_bits).ok());
        const std::string what = "n=" + std::to_string(n) +
                                 " tile_bits=" + std::to_string(tile_bits);
        ExpectBitIdentical(op_at_a_time, tiled, what.c_str());
      }
      StateVector by_default(n);
      ASSERT_TRUE(program.Execute(by_default, params).ok());
      ExpectBitIdentical(op_at_a_time, by_default, "default tiles");
    }
  }
  StateVector state(14);
  EXPECT_FALSE(CompiledCircuit::Compile(QaoaShapedCircuit(14, 60))
                   .ExecuteWithTileBits(state, {0.1, 0.2}, kWalshBlockBits - 1)
                   .ok());
}

TEST(CacheBlockedExecutionTest, QaoaProgramBitIdenticalAcrossDispatch) {
  DispatchGuard guard;
  // A 16-qubit p=1 QAOA energy program — product prefix, diagonal run with
  // vector sin/cos, tiled RX layer — gives the same bits at every SIMD level
  // and pool width.
  const int n = 16;
  const CompiledCircuit program =
      CompiledCircuit::Compile(QaoaShapedCircuit(n, 136));
  ASSERT_EQ(program.stats().diagonal_runs, 1u);
  ASSERT_EQ(program.stats().product_prefix_ops, static_cast<size_t>(n));
  const DVector params = {0.45, 1.3};
  ASSERT_TRUE(simd::SetActiveSimdLevel(simd::SimdLevel::kScalar));
  ThreadPool::SetGlobalThreads(1);
  StateVector baseline(n);
  ASSERT_TRUE(program.Execute(baseline, params).ok());
  std::vector<Config> configs = ComparisonConfigs();
  configs.push_back({simd::SimdLevel::kScalar, 2});
  for (const Config& config : configs) {
    ASSERT_TRUE(simd::SetActiveSimdLevel(config.level));
    ThreadPool::SetGlobalThreads(config.threads);
    StateVector other(n);
    ASSERT_TRUE(program.Execute(other, params).ok());
    const std::string what = std::string("qaoa ") +
                             simd::SimdLevelName(config.level) + "/t" +
                             std::to_string(config.threads);
    ExpectBitIdentical(baseline, other, what.c_str());
  }
}

TEST(CacheBlockedExecutionTest, FusedBlockedReplayBitIdenticalAcrossDispatch) {
  DispatchGuard guard;
  // With fusion on, the compiled program differs from the interpreter's op
  // list — but it must still be bit-identical to itself across every SIMD
  // level and thread width.
  const int n = 17;
  const Circuit circuit = BrickCircuit(n, 2);
  const CompiledCircuit compiled =
      CompiledCircuit::Compile(circuit, CompileOptions{/*fuse=*/true});

  ASSERT_TRUE(simd::SetActiveSimdLevel(simd::SimdLevel::kScalar));
  ThreadPool::SetGlobalThreads(1);
  StateVector baseline(n);
  ASSERT_TRUE(compiled.Execute(baseline, {}).ok());

  for (const Config& config : ComparisonConfigs()) {
    ASSERT_TRUE(simd::SetActiveSimdLevel(config.level));
    ThreadPool::SetGlobalThreads(config.threads);
    StateVector other(n);
    ASSERT_TRUE(compiled.Execute(other, {}).ok());
    const std::string what =
        std::string("fused ") + simd::SimdLevelName(config.level) + "/t" +
        std::to_string(config.threads);
    ExpectBitIdentical(baseline, other, what.c_str());
  }
}

}  // namespace
}  // namespace qdb
