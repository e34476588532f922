// Tests for fidelity quantum kernels and alignment diagnostics.

#include <gtest/gtest.h>

#include <cmath>

#include "classical/dataset.h"
#include "encoding/encodings.h"
#include "kernel/alignment.h"
#include "kernel/quantum_kernel.h"
#include "linalg/eigen.h"
#include "linalg/vector_ops.h"
#include "obs/obs.h"
#include "sim/compiled_circuit.h"
#include "sim/statevector_simulator.h"

namespace qdb {
namespace {

std::vector<DVector> SmallDataset(int count, int dims, uint64_t seed) {
  Rng rng(seed);
  std::vector<DVector> xs(count, DVector(dims));
  for (auto& x : xs) {
    for (auto& v : x) v = rng.Uniform(0.0, M_PI);
  }
  return xs;
}

TEST(QuantumKernelTest, SelfKernelIsOne) {
  FidelityQuantumKernel kernel = MakeAngleKernel();
  const DVector x = {0.3, 1.1};
  auto k = kernel.Evaluate(x, x);
  ASSERT_TRUE(k.ok());
  EXPECT_NEAR(k.value(), 1.0, 1e-10);
}

TEST(QuantumKernelTest, KernelValuesInUnitInterval) {
  FidelityQuantumKernel kernel = MakeZZFeatureMapKernel(2);
  auto xs = SmallDataset(6, 2, 3);
  for (size_t i = 0; i < xs.size(); ++i) {
    for (size_t j = 0; j < xs.size(); ++j) {
      auto k = kernel.Evaluate(xs[i], xs[j]);
      ASSERT_TRUE(k.ok());
      EXPECT_GE(k.value(), -1e-12);
      EXPECT_LE(k.value(), 1.0 + 1e-12);
    }
  }
}

TEST(QuantumKernelTest, AngleKernelAnalyticValue) {
  // 1 feature, RY encoding: k(x, y) = cos²((x−y)/2).
  FidelityQuantumKernel kernel = MakeAngleKernel();
  const double x = 0.7, y = 1.9;
  auto k = kernel.Evaluate({x}, {y});
  ASSERT_TRUE(k.ok());
  const double expected = std::pow(std::cos((x - y) / 2.0), 2);
  EXPECT_NEAR(k.value(), expected, 1e-10);
}

class GramMatrixPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(GramMatrixPropertyTest, SymmetricUnitDiagonalPsd) {
  // Property: every fidelity Gram matrix is symmetric, has unit diagonal,
  // and is positive semidefinite.
  FidelityQuantumKernel kernel =
      GetParam() == 0 ? MakeAngleKernel()
      : GetParam() == 1 ? MakeZZFeatureMapKernel(1)
                        : MakeAmplitudeKernel();
  auto xs = SmallDataset(8, 2, 40 + GetParam());
  // Amplitude encoding rejects zero vectors; our samples are positive.
  auto gram = kernel.GramMatrix(xs);
  ASSERT_TRUE(gram.ok()) << gram.status();
  const Matrix& k = gram.value();
  for (size_t i = 0; i < k.rows(); ++i) {
    EXPECT_NEAR(k(i, i).real(), 1.0, 1e-10);
    for (size_t j = 0; j < k.cols(); ++j) {
      EXPECT_NEAR(k(i, j).real(), k(j, i).real(), 1e-12);
      EXPECT_NEAR(k(i, j).imag(), 0.0, 1e-12);
    }
  }
  auto psd = IsPositiveSemidefinite(k, 1e-7);
  ASSERT_TRUE(psd.ok());
  EXPECT_TRUE(psd.value());
}

INSTANTIATE_TEST_SUITE_P(Kernels, GramMatrixPropertyTest,
                         ::testing::Values(0, 1, 2));

TEST(QuantumKernelTest, CrossMatrixMatchesPairwiseEvaluation) {
  FidelityQuantumKernel kernel = MakeAngleKernel();
  auto train = SmallDataset(4, 2, 7);
  auto test = SmallDataset(3, 2, 8);
  auto cross = kernel.CrossMatrix(test, train);
  ASSERT_TRUE(cross.ok());
  for (size_t i = 0; i < test.size(); ++i) {
    for (size_t j = 0; j < train.size(); ++j) {
      auto direct = kernel.Evaluate(test[i], train[j]);
      ASSERT_TRUE(direct.ok());
      EXPECT_NEAR(cross.value()(i, j).real(), direct.value(), 1e-10);
    }
  }
}

TEST(QuantumKernelTest, CrossFromEncodedMatchesCrossMatrix) {
  // The serving hot path: reference states encoded once, reused across
  // request batches. Must agree with the from-scratch CrossMatrix.
  FidelityQuantumKernel kernel = MakeZZFeatureMapKernel();
  auto train = SmallDataset(4, 2, 9);
  auto test = SmallDataset(3, 2, 10);
  auto ref = kernel.EncodedStates(train);
  ASSERT_TRUE(ref.ok());
  auto fast = kernel.CrossFromEncoded(test, ref.value());
  auto full = kernel.CrossMatrix(test, train);
  ASSERT_TRUE(fast.ok() && full.ok());
  for (size_t i = 0; i < test.size(); ++i) {
    for (size_t j = 0; j < train.size(); ++j) {
      EXPECT_NEAR(fast.value()(i, j).real(), full.value()(i, j).real(),
                  1e-12);
    }
  }
  // Width mismatch between test encoding and reference states is caught.
  auto bad = kernel.CrossFromEncoded(SmallDataset(2, 3, 11), ref.value());
  EXPECT_FALSE(bad.ok());
}

// Dense oracle: both points streamed gate by gate on the state-vector
// simulator and overlapped with Fidelity.
double DenseFidelity(const Circuit& a, const Circuit& b) {
  const StateVectorSimulator simulator;
  StateVector phi_a(a.num_qubits());
  StateVector phi_b(b.num_qubits());
  const Status status_a = simulator.RunStreamed(a, phi_a);
  const Status status_b = simulator.RunStreamed(b, phi_b);
  QDB_CHECK(status_a.ok() && status_b.ok());
  return Fidelity(phi_a.ToAmplitudes(), phi_b.ToAmplitudes());
}

TEST(QuantumKernelTest, FactoredAngleEntriesMatchDenseOracle) {
  // Angle encodings are product states: every entry comes from per-qubit
  // 2-vectors. It must agree with the dense overlap for every rotation
  // axis (X and Z give complex factors, so a dropped conjugate shows),
  // several scales, and features beyond 2π.
  Rng rng(21);
  std::vector<DVector> xs(5, DVector(3));
  for (auto& x : xs) {
    for (auto& v : x) v = rng.Uniform(-3.0 * M_PI, 3.0 * M_PI);
  }
  for (RotationAxis axis :
       {RotationAxis::kX, RotationAxis::kY, RotationAxis::kZ}) {
    for (double scale : {0.5, 1.0, 3.0}) {
      const auto encode = [axis, scale](const DVector& x) {
        return AngleEncoding(x, axis, scale);
      };
      FidelityQuantumKernel kernel(encode);
      auto gram = kernel.GramMatrix(xs);
      auto cross = kernel.CrossMatrix({xs[0], xs[3]}, xs);
      ASSERT_TRUE(gram.ok() && cross.ok());
      for (size_t i = 0; i < xs.size(); ++i) {
        EXPECT_EQ(gram.value()(i, i).real(), 1.0);
        for (size_t j = 0; j < xs.size(); ++j) {
          const double oracle = DenseFidelity(encode(xs[i]), encode(xs[j]));
          EXPECT_NEAR(gram.value()(i, j).real(), oracle, 1e-13)
              << "axis " << static_cast<int>(axis) << " scale " << scale;
          auto k = kernel.Evaluate(xs[i], xs[j]);
          ASSERT_TRUE(k.ok());
          EXPECT_NEAR(k.value(), oracle, 1e-13);
        }
      }
      for (size_t j = 0; j < xs.size(); ++j) {
        EXPECT_NEAR(cross.value()(0, j).real(), gram.value()(0, j).real(),
                    1e-13);
        EXPECT_NEAR(cross.value()(1, j).real(), gram.value()(3, j).real(),
                    1e-13);
      }
    }
  }
}

TEST(QuantumKernelTest, EncodingFormFollowsCircuitStructure) {
  // Single-qubit-gate encodings factor per qubit and run no circuit; a ZZ
  // feature map has two-qubit gates, so it keeps the dense 2^n state.
  obs::Counter* runs = obs::GetCounter("kernel.circuit_runs");
  const DVector x = {0.4, 1.3, 2.2};

  const long angle_before = runs->Value();
  auto angle = MakeAngleKernel().EncodedState(x);
  ASSERT_TRUE(angle.ok());
  EXPECT_EQ(runs->Value(), angle_before);
  EXPECT_TRUE(angle.value().factored);
  EXPECT_EQ(angle.value().amplitudes.size(), 6u);

  const long zz_before = runs->Value();
  auto zz = MakeZZFeatureMapKernel().EncodedState(x);
  ASSERT_TRUE(zz.ok());
  EXPECT_EQ(runs->Value(), zz_before + 1);
  EXPECT_FALSE(zz.value().factored);
  EXPECT_EQ(zz.value().amplitudes.size(), 8u);
}

TEST(QuantumKernelTest, MixedEncodingFormsAreRejected) {
  // An encoder whose gate list is single-qubit for some points and
  // entangling for others would mix factored and dense points in one set.
  const auto encode = [](const DVector& x) {
    Circuit c = AngleEncoding(x, RotationAxis::kX, 1.0);
    if (x[0] > 1.0) c.CX(0, 1).RZ(1, x[1]);
    return c;
  };
  FidelityQuantumKernel kernel(encode);
  const std::vector<DVector> factored = {{0.3, 2.1}, {0.9, -1.2}};
  const std::vector<DVector> mixed = {{0.3, 2.1}, {1.7, 0.4}};
  EXPECT_FALSE(kernel.GramMatrix(mixed).ok());
  EXPECT_FALSE(kernel.CrossMatrix({{1.7, 0.4}}, factored).ok());
  EXPECT_FALSE(kernel.Evaluate({0.3, 2.1}, {1.7, 0.4}).ok());
  auto ref = kernel.EncodedStates(factored);
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(kernel.CrossFromEncoded({{1.7, 0.4}}, ref.value()).ok());
  EXPECT_TRUE(kernel.CrossFromEncoded({{0.5, 0.4}}, ref.value()).ok());
}

TEST(QuantumKernelTest, DenseEncodingsCompileOnlyWhenWide) {
  // The kernel streams narrow dense encodings (a one-shot compile costs
  // more than fusion saves there) and compiles wide ones; both are compared
  // bitwise against direct streamed and fused runs of the same circuit.
  for (int n : {3, 12}) {
    DVector x(n);
    for (int q = 0; q < n; ++q) x[q] = 0.37 * (q + 1);
    const Circuit circuit = ZZFeatureMap(x, /*reps=*/2);
    StateVector streamed(n);
    ASSERT_TRUE(StateVectorSimulator().RunStreamed(circuit, streamed).ok());
    StateVector fused(n);
    ASSERT_TRUE(CompiledCircuit::Compile(circuit).Execute(fused).ok());
    auto encoded = MakeZZFeatureMapKernel(2).EncodedState(x);
    ASSERT_TRUE(encoded.ok());
    const CVector expected =
        n >= 12 ? fused.ToAmplitudes() : streamed.ToAmplitudes();
    const CVector& actual = encoded.value().amplitudes;
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t k = 0; k < expected.size(); ++k) {
      ASSERT_EQ(actual[k], expected[k]) << n << " qubits, " << k;
    }
  }
}

TEST(QuantumKernelTest, EmptyInputsRejected) {
  FidelityQuantumKernel kernel = MakeAngleKernel();
  EXPECT_FALSE(kernel.GramMatrix({}).ok());
  EXPECT_FALSE(kernel.CrossMatrix({}, SmallDataset(2, 2, 1)).ok());
  EXPECT_FALSE(kernel.EncodedState({}).ok());
}

TEST(AlignmentTest, PerfectKernelAlignsToOne) {
  // K = yyᵀ (up to PSD scaling) has alignment exactly 1.
  std::vector<int> labels = {1, -1, 1, -1};
  Matrix k(4, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      k(i, j) = Complex(labels[i] * labels[j], 0.0);
    }
  }
  auto a = KernelTargetAlignment(k, labels);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a.value(), 1.0, 1e-12);
}

TEST(AlignmentTest, AntiAlignedKernelIsNegative) {
  std::vector<int> labels = {1, -1};
  Matrix k(2, 2);
  k(0, 0) = k(1, 1) = Complex(1, 0);
  k(0, 1) = k(1, 0) = Complex(1, 0);  // Constant kernel: sees no structure.
  auto a = KernelTargetAlignment(k, labels);
  ASSERT_TRUE(a.ok());
  EXPECT_NEAR(a.value(), 0.0, 1e-12);  // ⟨K, yyᵀ⟩ = 2−2 = 0... constant.
}

TEST(AlignmentTest, InputValidation) {
  Matrix k = Matrix::Identity(3);
  EXPECT_FALSE(KernelTargetAlignment(k, {1, -1}).ok());         // Size.
  EXPECT_FALSE(KernelTargetAlignment(k, {1, 2, -1}).ok());      // Labels.
  EXPECT_FALSE(KernelTargetAlignment(Matrix(2, 3), {1, -1}).ok());
}

TEST(AlignmentTest, CenteredKernelRowSumsVanish) {
  Rng rng(9);
  Matrix k(5, 5);
  for (int i = 0; i < 5; ++i) {
    for (int j = i; j < 5; ++j) {
      double v = rng.Uniform(0.0, 1.0);
      k(i, j) = Complex(v, 0);
      k(j, i) = Complex(v, 0);
    }
  }
  auto centered = CenterKernel(k);
  ASSERT_TRUE(centered.ok());
  for (size_t i = 0; i < 5; ++i) {
    double row_sum = 0.0;
    for (size_t j = 0; j < 5; ++j) row_sum += centered.value()(i, j).real();
    EXPECT_NEAR(row_sum, 0.0, 1e-10);
  }
}

TEST(AlignmentTest, CenteredAlignmentDetectsStructure) {
  // Labels follow feature sign; the angle kernel on well-separated points
  // should align positively once centered.
  std::vector<DVector> xs;
  std::vector<int> labels;
  for (int i = 0; i < 6; ++i) {
    const bool pos = i % 2 == 0;
    xs.push_back({pos ? 0.3 : 2.8});
    labels.push_back(pos ? 1 : -1);
  }
  auto gram = MakeAngleKernel().GramMatrix(xs);
  ASSERT_TRUE(gram.ok());
  auto alignment = CenteredKernelAlignment(gram.value(), labels);
  ASSERT_TRUE(alignment.ok());
  EXPECT_GT(alignment.value(), 0.5);
}

}  // namespace
}  // namespace qdb
