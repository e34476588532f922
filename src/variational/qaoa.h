/// \file qaoa.h
/// \brief Quantum Approximate Optimization Algorithm over Ising cost
/// Hamiltonians — the gate-model route from QUBO-encoded database problems
/// to solutions.

#ifndef QDB_VARIATIONAL_QAOA_H_
#define QDB_VARIATIONAL_QAOA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "autodiff/expectation.h"
#include "circuit/circuit.h"
#include "common/result.h"
#include "common/rng.h"
#include "ops/ising.h"
#include "optimize/nelder_mead.h"

namespace qdb {

/// \brief Configuration for QAOA optimization.
struct QaoaOptions {
  int restarts = 3;           ///< Independent Nelder–Mead starts.
  uint64_t seed = 17;         ///< Seed for restarts and sampling.
  int sample_shots = 512;     ///< Shots when extracting the best solution.
  NelderMeadOptions nelder_mead;
};

/// \brief Outcome of a QAOA run.
struct QaoaResult {
  DVector params;             ///< Best (γ_0..γ_{p−1}, β_0..β_{p−1}).
  double expected_energy = 0;  ///< ⟨H_C⟩ at the best parameters.
  double best_energy = 0;     ///< Energy of the best sampled configuration.
  std::vector<int8_t> best_spins;  ///< That configuration.
  /// ⟨H_C⟩ per optimizer iteration of the winning restart.
  DVector history;
  long circuit_evaluations = 0;
};

/// \brief QAOA driver for one Ising instance.
///
/// The parameter layout is γ_k = θ[k] and β_k = θ[p + k]. The circuit is
/// H⊗n, then per layer the cost separator exp(−iγ_k H_C) (RZ / RZZ gates
/// with angles 2γ_k·h and 2γ_k·J) and the mixer exp(−iβ_k Σ X) (RX(2β_k)).
class Qaoa {
 public:
  /// `layers` is the QAOA depth p ≥ 1.
  Qaoa(IsingModel cost, int layers);

  const IsingModel& cost() const { return cost_; }
  int layers() const { return layers_; }

  /// The parameterized QAOA circuit (2p symbolic parameters).
  const Circuit& circuit() const { return energy_->circuit(); }

  /// ⟨ψ(γ,β)|H_C|ψ(γ,β)⟩, offset included.
  Result<double> Energy(const DVector& params) const;

  /// Optimizes (γ, β) with restarted Nelder–Mead, then samples `shots`
  /// configurations at the optimum and reports the best one found.
  Result<QaoaResult> Optimize(const QaoaOptions& options = {}) const;

  /// Samples configurations at `params` and returns the lowest-energy one.
  Result<std::vector<int8_t>> SampleBest(const DVector& params, int shots,
                                         Rng& rng) const;

 private:
  Circuit Build() const;

  IsingModel cost_;
  int layers_;
  /// ⟨H_C⟩ over the QAOA circuit, built once: it owns the circuit and the
  /// cost observable. Immutable, so copies of a Qaoa share it.
  std::shared_ptr<const ExpectationFunction> energy_;
};

}  // namespace qdb

#endif  // QDB_VARIATIONAL_QAOA_H_
