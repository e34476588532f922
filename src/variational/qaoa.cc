#include "variational/qaoa.h"

#include <cmath>
#include <limits>
#include <memory>

#include "obs/trace.h"
#include "sim/statevector_simulator.h"

namespace qdb {

Qaoa::Qaoa(IsingModel cost, int layers)
    : cost_(std::move(cost)),
      layers_(layers),
      energy_(std::make_shared<const ExpectationFunction>(
          Build(), cost_.ToPauliSum())) {
  QDB_CHECK_GE(layers, 1);
}

Circuit Qaoa::Build() const {
  const int n = cost_.num_spins();
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.H(q);
  for (int layer = 0; layer < layers_; ++layer) {
    const int gamma = layer;            // θ[layer]
    const int beta = layers_ + layer;   // θ[p + layer]
    // Cost separator exp(−i γ H_C): Z fields → RZ(2γh), ZZ → RZZ(2γJ).
    for (int i = 0; i < n; ++i) {
      const double h = cost_.field(i);
      if (h != 0.0) c.RZ(i, ParamExpr::Affine(gamma, 2.0 * h, 0.0));
    }
    for (const auto& [ij, j_val] : cost_.couplings()) {
      if (j_val != 0.0) {
        c.RZZ(ij.first, ij.second, ParamExpr::Affine(gamma, 2.0 * j_val, 0.0));
      }
    }
    // Transverse-field mixer exp(−i β Σ X).
    for (int q = 0; q < n; ++q) c.RX(q, ParamExpr::Affine(beta, 2.0, 0.0));
  }
  return c;
}

Result<double> Qaoa::Energy(const DVector& params) const {
  return energy_->Evaluate(params);
}

Result<std::vector<int8_t>> Qaoa::SampleBest(const DVector& params, int shots,
                                             Rng& rng) const {
  StateVectorSimulator sim;
  QDB_ASSIGN_OR_RETURN(StateVector state, sim.Run(circuit(), params));
  auto counts = state.SampleCounts(rng, shots);
  double best_energy = std::numeric_limits<double>::infinity();
  std::vector<int8_t> best;
  for (const auto& [index, count] : counts) {
    std::vector<int8_t> spins = IndexToSpins(index, cost_.num_spins());
    double e = cost_.Energy(spins);
    if (e < best_energy) {
      best_energy = e;
      best = std::move(spins);
    }
  }
  if (best.empty()) {
    return Status::Internal("no samples drawn");
  }
  return best;
}

Result<QaoaResult> Qaoa::Optimize(const QaoaOptions& options) const {
  QDB_TRACE_SCOPE("Qaoa::Optimize", "train");
  // Counted here rather than by the shared ExpectationFunction, so calls on
  // other threads or copies do not leak into this result.
  long evaluations = 0;
  Objective objective = [this, &evaluations](const DVector& p) {
    Result<double> e = energy_->Evaluate(p);
    if (e.ok()) ++evaluations;
    return e;
  };

  Rng rng(options.seed);
  QaoaResult result;
  result.expected_energy = std::numeric_limits<double>::infinity();
  // Scale the γ init range by the coupling magnitude so the phase separator
  // starts in a non-trivial regime for weighted instances.
  const double scale = std::max(cost_.MaxAbsCoefficient(), 1e-9);
  for (int r = 0; r < std::max(options.restarts, 1); ++r) {
    DVector init(2 * layers_);
    for (int k = 0; k < layers_; ++k) {
      init[k] = rng.Uniform(0.0, M_PI / scale);        // γ
      init[layers_ + k] = rng.Uniform(0.0, M_PI / 2);  // β
    }
    QDB_ASSIGN_OR_RETURN(
        OptimizeResult opt,
        MinimizeNelderMead(objective, init, options.nelder_mead));
    if (opt.value < result.expected_energy) {
      result.expected_energy = opt.value;
      result.params = std::move(opt.params);
      result.history = std::move(opt.history);
    }
  }

  QDB_ASSIGN_OR_RETURN(result.best_spins,
                       SampleBest(result.params, options.sample_shots, rng));
  result.best_energy = cost_.Energy(result.best_spins);
  result.circuit_evaluations = evaluations;
  return result;
}

}  // namespace qdb
