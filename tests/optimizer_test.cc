// Tests for the classical optimizers on analytic objectives.

#include <gtest/gtest.h>

#include <cmath>

#include "optimize/adam.h"
#include "optimize/nelder_mead.h"

namespace qdb {
namespace {

// f(x) = Σ (x_i − i)²: minimum 0 at x_i = i.
Result<double> Quadratic(const DVector& x) {
  double acc = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - static_cast<double>(i);
    acc += d * d;
  }
  return acc;
}

Result<DVector> QuadraticGrad(const DVector& x) {
  DVector g(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    g[i] = 2.0 * (x[i] - static_cast<double>(i));
  }
  return g;
}

// Rosenbrock in 2D: a curved valley for Nelder-Mead and Adam.
Result<double> Rosenbrock(const DVector& x) {
  const double a = 1.0 - x[0];
  const double b = x[1] - x[0] * x[0];
  return a * a + 100.0 * b * b;
}

TEST(AdamTest, MinimizesQuadratic) {
  AdamOptions opts;
  opts.learning_rate = 0.2;
  opts.max_iterations = 400;
  auto result = MinimizeAdam(Quadratic, QuadraticGrad, {7.0, -2.0}, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().value, 0.0, 1e-6);
}

TEST(AdamTest, HandlesRosenbrockViaNumericGradient) {
  GradientFn grad = [](const DVector& x) -> Result<DVector> {
    DVector g(2);
    const double eps = 1e-7;
    for (int k = 0; k < 2; ++k) {
      DVector hi = x, lo = x;
      hi[k] += eps;
      lo[k] -= eps;
      g[k] = (Rosenbrock(hi).value() - Rosenbrock(lo).value()) / (2 * eps);
    }
    return g;
  };
  AdamOptions opts;
  opts.learning_rate = 0.05;
  opts.max_iterations = 3000;
  auto result = MinimizeAdam(Rosenbrock, grad, {-1.0, 1.0}, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.value().value, 1e-2);
}

TEST(AdamTest, ValidatesOptions) {
  AdamOptions bad;
  bad.beta1 = 1.0;
  EXPECT_FALSE(MinimizeAdam(Quadratic, QuadraticGrad, {1.0}, bad).ok());
}

TEST(NelderMeadTest, MinimizesQuadraticWithoutGradients) {
  NelderMeadOptions opts;
  opts.max_iterations = 2000;
  auto result = MinimizeNelderMead(Quadratic, {3.0, 3.0, 3.0}, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().value, 0.0, 1e-6);
}

TEST(NelderMeadTest, SolvesRosenbrock) {
  NelderMeadOptions opts;
  opts.max_iterations = 5000;
  auto result = MinimizeNelderMead(Rosenbrock, {-1.2, 1.0}, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().params[0], 1.0, 1e-3);
  EXPECT_NEAR(result.value().params[1], 1.0, 1e-3);
}

TEST(NelderMeadTest, RejectsEmptyInitial) {
  EXPECT_FALSE(MinimizeNelderMead(Quadratic, {}, {}).ok());
}

TEST(NelderMeadTest, ConvergedFlagOnFlatObjective) {
  Objective flat = [](const DVector&) -> Result<double> { return 1.0; };
  auto result = MinimizeNelderMead(flat, {0.0, 0.0}, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().converged);
}

TEST(OptimizerTest, ObjectiveErrorsPropagate) {
  Objective failing = [](const DVector&) -> Result<double> {
    return Status::Internal("boom");
  };
  GradientFn failing_grad = [](const DVector&) -> Result<DVector> {
    return Status::Internal("boom");
  };
  EXPECT_FALSE(MinimizeAdam(failing, failing_grad, {1.0}, {}).ok());
  EXPECT_FALSE(MinimizeNelderMead(failing, {1.0}, {}).ok());
}

}  // namespace
}  // namespace qdb
