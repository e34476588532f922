/// \file optimizer.h
/// \brief Shared types for the classical optimizers that drive variational
/// quantum algorithms (minimization convention throughout).

#ifndef QDB_OPTIMIZE_OPTIMIZER_H_
#define QDB_OPTIMIZE_OPTIMIZER_H_

#include <functional>

#include "common/result.h"
#include "linalg/types.h"

namespace qdb {

/// Objective to minimize; may fail (e.g. simulator error) and the failure
/// propagates out of the optimizer.
using Objective = std::function<Result<double>(const DVector&)>;

/// Gradient oracle matching the objective.
using GradientFn = std::function<Result<DVector>(const DVector&)>;

/// \brief Outcome of an optimization run.
struct OptimizeResult {
  DVector params;        ///< Best parameters found.
  double value = 0.0;    ///< Objective at `params`.
  int iterations = 0;    ///< Iterations actually executed.
  bool converged = false;  ///< True if the stopping tolerance was met.
  /// Objective value after each iteration (for convergence plots).
  DVector history;
  /// ‖∇f‖₂ per iteration, for gradient-based optimizers (empty for the
  /// derivative-free ones).
  DVector gradient_norm_history;
};

}  // namespace qdb

#endif  // QDB_OPTIMIZE_OPTIMIZER_H_
