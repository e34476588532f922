// Tests for expectation functions and parameter-shift gradients.

#include <gtest/gtest.h>

#include <cmath>

#include "autodiff/parameter_shift.h"
#include "common/rng.h"
#include "variational/ansatz.h"

namespace qdb {
namespace {

PauliSum ZObservable(int n, int qubit = 0) {
  PauliSum obs(n);
  obs.Add(1.0, PauliString::Single(n, qubit, PauliOp::kZ));
  return obs;
}

TEST(ExpectationFunctionTest, SingleRotationCosineLaw) {
  Circuit c(1);
  c.RX(0, ParamExpr::Variable(0));
  ExpectationFunction f(c, ZObservable(1));
  for (double theta : {0.0, 0.5, 1.7, M_PI}) {
    auto e = f.Evaluate({theta});
    ASSERT_TRUE(e.ok());
    EXPECT_NEAR(e.value(), std::cos(theta), 1e-12);
  }
}

TEST(ExpectationFunctionTest, CountsEvaluations) {
  Circuit c(1);
  c.RY(0, ParamExpr::Variable(0));
  ExpectationFunction f(c, ZObservable(1));
  EXPECT_EQ(f.evaluation_count(), 0);
  (void)f.Evaluate({0.1});
  (void)f.Evaluate({0.2});
  EXPECT_EQ(f.evaluation_count(), 2);
  f.reset_evaluation_count();
  EXPECT_EQ(f.evaluation_count(), 0);
}

TEST(ExpectationFunctionTest, InitialStateOverride) {
  Circuit c(1);  // Empty circuit.
  ExpectationFunction f(c, ZObservable(1));
  StateVector one = StateVector::BasisState(1, 1);
  f.set_initial_state(one);
  auto e = f.Evaluate({});
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e.value(), -1.0, 1e-12);
}

TEST(ExpectationFunctionTest, ShiftErrorsOutOfRange) {
  Circuit c(1);
  c.RX(0, ParamExpr::Variable(0));
  ExpectationFunction f(c, ZObservable(1));
  EXPECT_FALSE(f.EvaluateWithShift({0.1}, 5, 0, 0.1).ok());
  EXPECT_FALSE(f.EvaluateWithShift({0.1}, 0, 3, 0.1).ok());
}

TEST(ExpectationFunctionTest, LightConeMatchesFullWidth) {
  // The observable acts on qubit 1 only, so runs from |0…0⟩ compile to its
  // light cone; with an initial state set they run full width.
  const Circuit c = RealAmplitudesAnsatz(5, 2, Entanglement::kLinear);
  PauliSum obs(5);
  obs.Add(0.7, PauliString::Single(5, 1, PauliOp::kZ));
  obs.Add(-0.4, PauliString::Single(5, 1, PauliOp::kX));
  ExpectationFunction cone(c, obs);
  ExpectationFunction full(c, obs);
  full.set_initial_state(StateVector(5));
  Rng rng(9);
  const DVector theta = rng.UniformVector(c.num_parameters(), -2.0, 2.0);
  auto a = cone.Evaluate(theta);
  auto b = full.Evaluate(theta);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NEAR(a.value(), b.value(), 1e-12);
  const std::vector<DVector> batch = {theta, DVector(theta.size(), 0.3)};
  auto batch_a = cone.EvaluateBatch(batch);
  auto batch_b = full.EvaluateBatch(batch);
  ASSERT_TRUE(batch_a.ok() && batch_b.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_NEAR(batch_a.value()[i], batch_b.value()[i], 1e-12);
  }
  auto grad_a = ParameterShiftGradient(cone, theta);
  auto grad_b = ParameterShiftGradient(full, theta);
  ASSERT_TRUE(grad_a.ok() && grad_b.ok());
  for (size_t k = 0; k < theta.size(); ++k) {
    EXPECT_NEAR(grad_a.value()[k], grad_b.value()[k], 1e-12) << k;
  }
  EXPECT_EQ(cone.evaluation_count(), full.evaluation_count());
}

TEST(ExpectationFunctionTest, EmptyBatchesReturnNoValues) {
  // Both the light-cone path and the full-width path (an initial state is
  // set) answer an empty batch with no values and no evaluations.
  const Circuit c = RealAmplitudesAnsatz(3, 1, Entanglement::kLinear);
  ExpectationFunction cone(c, ZObservable(3));
  ExpectationFunction full(c, ZObservable(3));
  full.set_initial_state(StateVector(3));
  for (const ExpectationFunction* f : {&cone, &full}) {
    auto batch = f->EvaluateBatch({});
    ASSERT_TRUE(batch.ok()) << batch.status();
    EXPECT_TRUE(batch.value().empty());
    auto shifts = f->EvaluateShiftBatch(DVector(c.num_parameters(), 0.1), {});
    ASSERT_TRUE(shifts.ok()) << shifts.status();
    EXPECT_TRUE(shifts.value().empty());
    EXPECT_EQ(f->evaluation_count(), 0);
  }
}

TEST(ParameterShiftTest, GateOutsideLightConeHasExactlyZeroGradient) {
  // ⟨Z_0⟩ = cos θ0: CX(0,1) leaves qubit 0's populations alone, and
  // RY(θ1) on qubit 1 and RY(θ2) on qubit 2 come after the last gate that
  // touches qubit 0, so they lie outside its light cone and are never run.
  Circuit c(3);
  c.RY(0, ParamExpr::Variable(0)).H(1).H(2).CX(0, 1);
  c.RY(1, ParamExpr::Variable(1)).CX(1, 2).RY(2, ParamExpr::Variable(2));
  ExpectationFunction f(c, ZObservable(3));
  const DVector theta = {0.8, -1.1, 0.4};
  auto grad = ParameterShiftGradient(f, theta);
  ASSERT_TRUE(grad.ok()) << grad.status();
  EXPECT_NEAR(grad.value()[0], -std::sin(theta[0]), 1e-12);
  EXPECT_EQ(grad.value()[1], 0.0);
  EXPECT_EQ(grad.value()[2], 0.0);
}

TEST(ParameterShiftTest, AnalyticGradientOfRx) {
  Circuit c(1);
  c.RX(0, ParamExpr::Variable(0));
  ExpectationFunction f(c, ZObservable(1));
  for (double theta : {0.0, 0.4, 1.3, 2.9}) {
    auto grad = ParameterShiftGradient(f, {theta});
    ASSERT_TRUE(grad.ok());
    EXPECT_NEAR(grad.value()[0], -std::sin(theta), 1e-12);
  }
}

TEST(ParameterShiftTest, ChainRuleThroughMultiplier) {
  // E = cos(2θ) ⇒ dE/dθ = −2 sin(2θ).
  Circuit c(1);
  c.RX(0, ParamExpr::Affine(0, 2.0, 0.0));
  ExpectationFunction f(c, ZObservable(1));
  const double theta = 0.6;
  auto grad = ParameterShiftGradient(f, {theta});
  ASSERT_TRUE(grad.ok());
  EXPECT_NEAR(grad.value()[0], -2.0 * std::sin(2.0 * theta), 1e-12);
}

TEST(ParameterShiftTest, SharedParameterAccumulates) {
  // Two RX(θ) on the same qubit: E = cos(2θ).
  Circuit c(1);
  c.RX(0, ParamExpr::Variable(0)).RX(0, ParamExpr::Variable(0));
  ExpectationFunction f(c, ZObservable(1));
  const double theta = 0.8;
  auto grad = ParameterShiftGradient(f, {theta});
  ASSERT_TRUE(grad.ok());
  EXPECT_NEAR(grad.value()[0], -2.0 * std::sin(2.0 * theta), 1e-12);
}

class GradientAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GradientAgreementTest, MatchesFiniteDifferenceOnRandomAnsatz) {
  // Property: parameter-shift equals central finite differences on
  // EfficientSU2 ansatz circuits with random parameters.
  Rng rng(GetParam());
  Circuit ansatz = EfficientSU2Ansatz(3, 2, Entanglement::kLinear);
  PauliSum obs(3);
  obs.Add(0.8, "ZII").Add(-0.5, "IXY").Add(0.3, "ZZZ");
  ExpectationFunction f(ansatz, obs);
  DVector params = rng.UniformVector(ansatz.num_parameters(), -M_PI, M_PI);

  auto analytic = ParameterShiftGradient(f, params);
  auto numeric = FiniteDifferenceGradient(f, params, 1e-6);
  ASSERT_TRUE(analytic.ok());
  ASSERT_TRUE(numeric.ok());
  for (size_t k = 0; k < params.size(); ++k) {
    EXPECT_NEAR(analytic.value()[k], numeric.value()[k], 1e-6) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ParameterShiftTest, ControlledRotationFourTermRule) {
  // CRY gradient (generator eigenvalues {0, ±1/2}) vs finite differences.
  Circuit c(2);
  c.H(0).CRY(0, 1, ParamExpr::Variable(0)).CRX(0, 1, ParamExpr::Variable(1));
  PauliSum obs(2);
  obs.Add(1.0, "IZ").Add(0.5, "ZZ");
  ExpectationFunction f(c, obs);
  const DVector params = {0.9, -0.4};
  auto analytic = ParameterShiftGradient(f, params);
  auto numeric = FiniteDifferenceGradient(f, params, 1e-6);
  ASSERT_TRUE(analytic.ok()) << analytic.status();
  ASSERT_TRUE(numeric.ok());
  EXPECT_NEAR(analytic.value()[0], numeric.value()[0], 1e-6);
  EXPECT_NEAR(analytic.value()[1], numeric.value()[1], 1e-6);
}

TEST(ParameterShiftTest, PhaseAndCPhaseGates) {
  Circuit c(2);
  c.H(0).H(1).P(0, ParamExpr::Variable(0)).CP(0, 1, ParamExpr::Variable(1));
  PauliSum obs(2);
  obs.Add(1.0, "XI").Add(0.7, "XX");
  ExpectationFunction f(c, obs);
  const DVector params = {1.2, 0.5};
  auto analytic = ParameterShiftGradient(f, params);
  auto numeric = FiniteDifferenceGradient(f, params, 1e-6);
  ASSERT_TRUE(analytic.ok()) << analytic.status();
  ASSERT_TRUE(numeric.ok());
  EXPECT_NEAR(analytic.value()[0], numeric.value()[0], 1e-6);
  EXPECT_NEAR(analytic.value()[1], numeric.value()[1], 1e-6);
}

TEST(ParameterShiftTest, TwoQubitRotations) {
  Circuit c(2);
  c.H(0).RXX(0, 1, ParamExpr::Variable(0)).RYY(0, 1, ParamExpr::Variable(1))
      .RZZ(0, 1, ParamExpr::Variable(2));
  PauliSum obs(2);
  obs.Add(1.0, "ZI").Add(-0.6, "XY");
  ExpectationFunction f(c, obs);
  const DVector params = {0.3, 1.1, -0.8};
  auto analytic = ParameterShiftGradient(f, params);
  auto numeric = FiniteDifferenceGradient(f, params, 1e-6);
  ASSERT_TRUE(analytic.ok());
  ASSERT_TRUE(numeric.ok());
  for (int k = 0; k < 3; ++k) {
    EXPECT_NEAR(analytic.value()[k], numeric.value()[k], 1e-6);
  }
}

TEST(ParameterShiftTest, SymbolicUGateUnimplemented) {
  Circuit c(1);
  c.U(0, ParamExpr::Variable(0), ParamExpr::Constant(0.0),
      ParamExpr::Constant(0.0));
  ExpectationFunction f(c, ZObservable(1));
  auto grad = ParameterShiftGradient(f, {0.5});
  ASSERT_FALSE(grad.ok());
  EXPECT_EQ(grad.status().code(), StatusCode::kUnimplemented);
  // The finite-difference fallback still works.
  EXPECT_TRUE(FiniteDifferenceGradient(f, {0.5}).ok());
}

TEST(ParameterShiftTest, ConstantGatesContributeNothing) {
  Circuit c(1);
  c.RX(0, 0.3).RY(0, ParamExpr::Variable(0));
  ExpectationFunction f(c, ZObservable(1));
  auto grad = ParameterShiftGradient(f, {0.0});
  ASSERT_TRUE(grad.ok());
  EXPECT_EQ(grad.value().size(), 1u);
}

TEST(FiniteDifferenceTest, RejectsBadEpsilon) {
  Circuit c(1);
  c.RX(0, ParamExpr::Variable(0));
  ExpectationFunction f(c, ZObservable(1));
  EXPECT_FALSE(FiniteDifferenceGradient(f, {0.1}, 0.0).ok());
  EXPECT_FALSE(FiniteDifferenceGradient(f, {0.1}, -1e-3).ok());
}

TEST(ParameterShiftTest, EvaluationBudgetIsTwoPerParameterOccurrence) {
  Circuit c = RealAmplitudesAnsatz(2, 1);  // 4 parameters, one gate each.
  ExpectationFunction f(c, ZObservable(2));
  DVector params(c.num_parameters(), 0.1);
  f.reset_evaluation_count();
  ASSERT_TRUE(ParameterShiftGradient(f, params).ok());
  EXPECT_EQ(f.evaluation_count(), 2 * c.num_parameters());
}

}  // namespace
}  // namespace qdb
