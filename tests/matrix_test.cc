// Tests for the dense complex matrix and vector operations.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace qdb {
namespace {

TEST(MatrixTest, ZeroConstruction) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), Complex(0, 0));
  }
}

TEST(MatrixTest, InitializerList) {
  Matrix m{{{1, 0}, {2, 0}}, {{3, 0}, {4, 0}}};
  EXPECT_EQ(m(0, 1), Complex(2, 0));
  EXPECT_EQ(m(1, 0), Complex(3, 0));
}

TEST(MatrixTest, IdentityAndDiagonal) {
  Matrix id = Matrix::Identity(3);
  EXPECT_EQ(id(1, 1), Complex(1, 0));
  EXPECT_EQ(id(0, 1), Complex(0, 0));
  Matrix d = Matrix::Diagonal({Complex(2, 0), Complex(0, 1)});
  EXPECT_EQ(d(0, 0), Complex(2, 0));
  EXPECT_EQ(d(1, 1), Complex(0, 1));
  EXPECT_EQ(d(0, 1), Complex(0, 0));
}

TEST(MatrixTest, AdditionSubtraction) {
  Matrix a{{{1, 0}, {2, 0}}, {{3, 0}, {4, 0}}};
  Matrix b{{{10, 0}, {20, 0}}, {{30, 0}, {40, 0}}};
  Matrix sum = a + b;
  EXPECT_EQ(sum(1, 1), Complex(44, 0));
  Matrix diff = b - a;
  EXPECT_EQ(diff(0, 0), Complex(9, 0));
}

TEST(MatrixTest, ScalarMultiply) {
  Matrix a{{{1, 0}, {0, 1}}};
  Matrix scaled = a * Complex(0, 1);
  EXPECT_EQ(scaled(0, 0), Complex(0, 1));
  EXPECT_EQ(scaled(0, 1), Complex(-1, 0));
  Matrix scaled2 = Complex(2, 0) * a;
  EXPECT_EQ(scaled2(0, 0), Complex(2, 0));
}

TEST(MatrixTest, MatrixProduct) {
  Matrix a{{{1, 0}, {2, 0}}, {{3, 0}, {4, 0}}};
  Matrix b{{{5, 0}, {6, 0}}, {{7, 0}, {8, 0}}};
  Matrix p = a * b;
  EXPECT_EQ(p(0, 0), Complex(19, 0));
  EXPECT_EQ(p(0, 1), Complex(22, 0));
  EXPECT_EQ(p(1, 0), Complex(43, 0));
  EXPECT_EQ(p(1, 1), Complex(50, 0));
}

TEST(MatrixTest, NonSquareProductShapes) {
  Matrix a(2, 3);
  Matrix b(3, 4);
  Matrix p = a * b;
  EXPECT_EQ(p.rows(), 2u);
  EXPECT_EQ(p.cols(), 4u);
}

TEST(MatrixTest, ApplyVector) {
  Matrix a{{{0, 0}, {1, 0}}, {{1, 0}, {0, 0}}};  // X gate
  CVector v = {Complex(1, 0), Complex(0, 0)};
  CVector out = a.Apply(v);
  EXPECT_EQ(out[0], Complex(0, 0));
  EXPECT_EQ(out[1], Complex(1, 0));
}

TEST(MatrixTest, AdjointConjugatesAndTransposes) {
  Matrix a{{{1, 2}, {3, 4}}, {{5, 6}, {7, 8}}};
  Matrix adj = a.Adjoint();
  EXPECT_EQ(adj(0, 1), Complex(5, -6));
  EXPECT_EQ(adj(1, 0), Complex(3, -4));
}

TEST(MatrixTest, TransposeDoesNotConjugate) {
  Matrix a{{{1, 2}, {3, 4}}, {{5, 6}, {7, 8}}};
  Matrix t = a.Transpose();
  EXPECT_EQ(t(0, 1), Complex(5, 6));
}

TEST(MatrixTest, KroneckerProduct) {
  Matrix x{{{0, 0}, {1, 0}}, {{1, 0}, {0, 0}}};
  Matrix id = Matrix::Identity(2);
  Matrix xi = x.Kron(id);
  // X ⊗ I swaps the two 2x2 blocks.
  EXPECT_EQ(xi.rows(), 4u);
  EXPECT_EQ(xi(0, 2), Complex(1, 0));
  EXPECT_EQ(xi(1, 3), Complex(1, 0));
  EXPECT_EQ(xi(2, 0), Complex(1, 0));
  EXPECT_EQ(xi(0, 0), Complex(0, 0));
}

TEST(MatrixTest, KroneckerAgainstHandComputed) {
  Matrix a{{{1, 0}, {2, 0}}};       // 1x2
  Matrix b{{{3, 0}}, {{4, 0}}};     // 2x1
  Matrix k = a.Kron(b);
  EXPECT_EQ(k.rows(), 2u);
  EXPECT_EQ(k.cols(), 2u);
  EXPECT_EQ(k(0, 0), Complex(3, 0));
  EXPECT_EQ(k(1, 0), Complex(4, 0));
  EXPECT_EQ(k(0, 1), Complex(6, 0));
  EXPECT_EQ(k(1, 1), Complex(8, 0));
}

TEST(MatrixTest, TraceAndNorm) {
  Matrix a{{{1, 0}, {2, 0}}, {{3, 0}, {4, 0}}};
  EXPECT_EQ(a.Trace(), Complex(5, 0));
  EXPECT_NEAR(a.FrobeniusNorm(), std::sqrt(30.0), 1e-12);
}

TEST(MatrixTest, UnitarityChecks) {
  const double s = 1.0 / std::sqrt(2.0);
  Matrix h{{{s, 0}, {s, 0}}, {{s, 0}, {-s, 0}}};
  EXPECT_TRUE(h.IsUnitary());
  Matrix not_unitary{{{1, 0}, {1, 0}}, {{0, 0}, {1, 0}}};
  EXPECT_FALSE(not_unitary.IsUnitary());
  EXPECT_FALSE(Matrix(2, 3).IsUnitary());
}

TEST(MatrixTest, HermiticityChecks) {
  Matrix herm{{{2, 0}, {1, -1}}, {{1, 1}, {3, 0}}};
  EXPECT_TRUE(herm.IsHermitian());
  Matrix not_herm{{{2, 0}, {1, 1}}, {{1, 1}, {3, 0}}};
  EXPECT_FALSE(not_herm.IsHermitian());
}

TEST(MatrixTest, ApproxEqualTolerance) {
  Matrix a = Matrix::Identity(2);
  Matrix b = Matrix::Identity(2);
  b(0, 0) += Complex(1e-12, 0);
  EXPECT_TRUE(a.ApproxEqual(b, 1e-10));
  EXPECT_FALSE(a.ApproxEqual(b, 1e-14));
}

TEST(MatrixTest, EqualUpToGlobalPhase) {
  Matrix a = Matrix::Identity(2);
  Matrix b = a * std::exp(Complex(0, 0.7));
  EXPECT_TRUE(a.EqualUpToGlobalPhase(b));
  Matrix c = a;
  c(1, 1) = Complex(-1, 0);  // Z, not a global phase of I.
  EXPECT_FALSE(a.EqualUpToGlobalPhase(c));
}

TEST(VectorOpsTest, InnerProductConjugatesFirstArg) {
  CVector a = {Complex(0, 1), Complex(1, 0)};
  CVector b = {Complex(0, 1), Complex(1, 0)};
  EXPECT_EQ(InnerProduct(a, b), Complex(2, 0));
}

TEST(VectorOpsTest, InnerProductBitIdenticalToComplexFormula) {
  // The real-arithmetic InnerProduct must reproduce Σ conj(a_i)·b_i summed
  // with std::complex in index order, bit for bit, on finite inputs of
  // mixed sign and magnitude.
  Rng rng(20);
  for (size_t size : {size_t{1}, size_t{7}, size_t{64}, size_t{4096}}) {
    CVector a(size), b(size);
    for (size_t i = 0; i < size; ++i) {
      const int exponent = static_cast<int>(rng.UniformInt(41)) - 20;
      const double scale = std::ldexp(1.0, exponent);
      a[i] = Complex(scale * rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0));
      b[i] = Complex(rng.Uniform(-1.0, 1.0), scale * rng.Uniform(-1.0, 1.0));
    }
    Complex expected(0.0, 0.0);
    for (size_t i = 0; i < size; ++i) expected += std::conj(a[i]) * b[i];
    const Complex got = InnerProduct(a, b);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.real()),
              std::bit_cast<uint64_t>(expected.real()))
        << size;
    EXPECT_EQ(std::bit_cast<uint64_t>(got.imag()),
              std::bit_cast<uint64_t>(expected.imag()))
        << size;
  }
}

TEST(VectorOpsTest, NormAndNormalize) {
  CVector v = {Complex(3, 0), Complex(4, 0)};
  EXPECT_NEAR(Norm(v), 5.0, 1e-12);
  Normalize(v);
  EXPECT_NEAR(Norm(v), 1.0, 1e-12);
  CVector zero = {Complex(0, 0)};
  Normalize(zero);  // No-op, no crash.
  EXPECT_EQ(zero[0], Complex(0, 0));
}

TEST(VectorOpsTest, KronOfVectors) {
  CVector a = {Complex(1, 0), Complex(2, 0)};
  CVector b = {Complex(0, 0), Complex(1, 0)};
  CVector k = Kron(a, b);
  ASSERT_EQ(k.size(), 4u);
  EXPECT_EQ(k[1], Complex(1, 0));
  EXPECT_EQ(k[3], Complex(2, 0));
}

TEST(VectorOpsTest, FidelityOfOrthogonalAndEqualStates) {
  CVector zero = {Complex(1, 0), Complex(0, 0)};
  CVector one = {Complex(0, 0), Complex(1, 0)};
  EXPECT_NEAR(Fidelity(zero, one), 0.0, 1e-12);
  EXPECT_NEAR(Fidelity(zero, zero), 1.0, 1e-12);
}

TEST(VectorOpsTest, RealVectorHelpers) {
  DVector a = {1.0, 2.0, 3.0};
  DVector b = {4.0, 5.0, 6.0};
  EXPECT_NEAR(Dot(a, b), 32.0, 1e-12);
  EXPECT_EQ(Add(a, b)[2], 9.0);
  EXPECT_EQ(Sub(b, a)[0], 3.0);
  EXPECT_EQ(Scale(2.0, a)[1], 4.0);
  EXPECT_NEAR(MaxAbsDiff(a, b), 3.0, 1e-12);
  EXPECT_NEAR(Norm(a), std::sqrt(14.0), 1e-12);
}

}  // namespace
}  // namespace qdb
