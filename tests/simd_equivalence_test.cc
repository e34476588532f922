// Scalar-vs-AVX2 dispatch equivalence: every gate kernel, probability
// reduction, and the cache-blocked compiled executor must produce
// bit-identical amplitudes at every SIMD level and thread width, at sizes on
// both sides of kParallelAmplitudeThreshold. The kernels are written to the
// same-operations/same-order contract (sim/kernels.h); this test is the
// enforcement.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "circuit/circuit.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/random_unitary.h"
#include "random_pauli_sum.h"
#include "sim/compiled_circuit.h"
#include "sim/simd.h"
#include "sim/state_vector.h"
#include "sim/statevector_simulator.h"

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

TEST(CacheBlockedExecutionTest, BlockedReplayMatchesInterpreterBitwise) {
  DispatchGuard guard;
  // 17 qubits: dim = 2^17 > the 2^16-amplitude block, so compiled replay
  // runs the blocked path while the interpreter applies ops one at a time
  // over the full state. Without fusion both execute the identical op list,
  // so amplitudes must match bit for bit — at every dispatch config.
  const int n = 17;
  const Circuit circuit = BrickCircuit(n, 2);

  StateVectorSimulator interpreter;
  interpreter.set_execution_mode(ExecutionMode::kInterpreted);

  const CompiledCircuit compiled =
      CompiledCircuit::Compile(circuit, CompileOptions{/*fuse=*/false});

  std::vector<Config> configs = {{simd::SimdLevel::kScalar, 1}};
  for (const Config& c : ComparisonConfigs()) configs.push_back(c);
  for (const Config& config : configs) {
    ASSERT_TRUE(simd::SetActiveSimdLevel(config.level));
    ThreadPool::SetGlobalThreads(config.threads);

    StateVector interpreted(n);
    ASSERT_TRUE(interpreter.RunInPlace(circuit, interpreted).ok());
    StateVector blocked(n);
    ASSERT_TRUE(compiled.Execute(blocked, {}).ok());

    const std::string what =
        std::string("blocked ") + simd::SimdLevelName(config.level) + "/t" +
        std::to_string(config.threads);
    ExpectBitIdentical(interpreted, blocked, what.c_str());
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
