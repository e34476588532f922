/// \file state_vector.h
/// \brief Pure-state amplitude vector with in-place gate kernels.
///
/// Convention used across qdb: qubit 0 is the *most significant* bit of the
/// basis index, matching the Kronecker order of GateMatrix and
/// PauliString::ToMatrix (state ⊗ order q0 ⊗ q1 ⊗ ... ⊗ q_{n-1}).
///
/// Storage is structure-of-arrays: two 64-byte-aligned double planes hold
/// the real and imaginary amplitude components separately, so the SIMD
/// kernels (sim/kernels.h) stream homogeneous doubles instead of
/// interleaved std::complex. The complex-vector API survives as a
/// conversion shim (ToAmplitudes / FromAmplitudes / SetAmplitudes);
/// serialized artifacts and callers that want CVector are unchanged.

#ifndef QDB_SIM_STATE_VECTOR_H_
#define QDB_SIM_STATE_VECTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/result.h"
#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/types.h"
#include "sim/walsh.h"

namespace qdb {

/// States with at least this many amplitudes run their gate kernels and
/// probability reductions on the shared ThreadPool; smaller states stay
/// serial so tiny circuits pay no dispatch cost. Reductions at or above the
/// threshold always use the pool's fixed chunking, so results are
/// bit-identical for every QDB_THREADS setting.
inline constexpr uint64_t kParallelAmplitudeThreshold = uint64_t{1} << 14;

/// \brief The amplitudes of an n-qubit pure state plus the low-level gate
/// application kernels the simulators are built on.
class StateVector {
 public:
  /// Initializes |0...0⟩ on `num_qubits` qubits.
  explicit StateVector(int num_qubits);

  /// Wraps existing amplitudes; the size must be a power of two and the
  /// norm must be 1 within `norm_tol`.
  static Result<StateVector> FromAmplitudes(CVector amplitudes,
                                            double norm_tol = 1e-8);

  /// Initializes the computational basis state |index⟩.
  static StateVector BasisState(int num_qubits, uint64_t index);

  int num_qubits() const { return num_qubits_; }
  uint64_t dim() const { return uint64_t{1} << num_qubits_; }

  // ---- Amplitude access ------------------------------------------------------

  /// Raw real/imag planes (length dim(), 64-byte aligned).
  const double* reals() const { return re_.data(); }
  double* reals() { return re_.data(); }
  const double* imags() const { return im_.data(); }
  double* imags() { return im_.data(); }

  Complex amplitude(uint64_t index) const;
  void set_amplitude(uint64_t index, Complex value);

  /// Materializes the interleaved complex amplitude vector (copy).
  CVector ToAmplitudes() const;

  /// Overwrites the state from an interleaved complex vector of exactly
  /// dim() entries. Trusted internal shim: no norm check — callers that
  /// need validation go through FromAmplitudes.
  void SetAmplitudes(const CVector& amplitudes);

  /// |amplitude|² of one basis state.
  double Probability(uint64_t index) const;

  /// All 2^n basis-state probabilities.
  DVector Probabilities() const;

  /// Probability that measuring `qubit` yields 1.
  double ProbabilityOfOne(int qubit) const;

  /// L2 norm of the amplitude vector (should be 1).
  double NormValue() const;

  /// Rescales to unit norm; aborts on the zero vector.
  void Renormalize();

  /// ⟨this|other⟩.
  Complex InnerProductWith(const StateVector& other) const;

  // ---- Gate kernels (in-place) ---------------------------------------------

  /// Applies a single-qubit unitary given by its four entries.
  void Apply1Q(int qubit, Complex m00, Complex m01, Complex m10, Complex m11);

  /// Applies a single-qubit unitary matrix (2x2).
  void Apply1Q(int qubit, const Matrix& u);

  /// Applies a controlled single-qubit unitary.
  void ApplyControlled1Q(int control, int target, Complex m00, Complex m01,
                         Complex m10, Complex m11);

  /// Applies a two-qubit unitary matrix (4x4; qubit `a` = high bit).
  void Apply2Q(int a, int b, const Matrix& u);

  /// Applies a diagonal two-qubit gate given by its four diagonal entries.
  void ApplyDiagonal2Q(int a, int b, Complex d0, Complex d1, Complex d2,
                       Complex d3);

  /// Applies a diagonal single-qubit gate diag(d0, d1).
  void ApplyDiagonal1Q(int qubit, Complex d0, Complex d1);

  /// Swaps qubits a and b.
  void ApplySwap(int a, int b);

  /// Multiplies amplitude i by e^{iΦ(i)} with Φ given by its Walsh terms
  /// (sim/walsh.h): any product of diagonal gates in one sweep.
  void ApplyWalshPhase(const std::vector<WalshTerm>& phase);

  /// Applies a k-qubit unitary matrix (2^k x 2^k; qubits[0] = high bit).
  /// Intended for k ≤ 3 gates; cost grows as 4^k per amplitude group.
  void ApplyKQ(const std::vector<int>& qubits, const Matrix& u);

  /// X on `target` conditioned on all `controls` being |1⟩.
  void ApplyMCX(const std::vector<int>& controls, int target);

  /// Phase −1 where all of controls ∪ {target} are |1⟩.
  void ApplyMCZ(const std::vector<int>& controls, int target);

  // ---- Measurement -----------------------------------------------------------

  /// Samples one full-register outcome without collapsing.
  uint64_t SampleOnce(Rng& rng) const;

  /// Samples `shots` outcomes without collapsing; returns outcome → count.
  std::map<uint64_t, int> SampleCounts(Rng& rng, int shots) const;

  /// Projectively measures one qubit: returns 0/1 and collapses the state.
  /// Collapse and kept-branch norm accumulation are fused into one pass,
  /// parallel above kParallelAmplitudeThreshold with the pool's
  /// deterministic chunking.
  int MeasureQubit(int qubit, Rng& rng);

  /// Projectively measures all qubits: returns the basis index and
  /// collapses to that basis state.
  uint64_t MeasureAll(Rng& rng);

  /// Renders a bitstring like "q0q1...q_{n-1}" for a basis index.
  std::string BitString(uint64_t index) const;

 private:
  /// Bit position (from LSB) of `qubit` in the basis index.
  int BitPos(int qubit) const { return num_qubits_ - 1 - qubit; }

  /// Running prefix sums of basis-state probabilities, accumulated serially
  /// in index order (shared by SampleOnce and SampleCounts so both draw
  /// from the identical CDF).
  DVector CumulativeProbabilities() const;

  int num_qubits_;
  AlignedDVector re_;
  AlignedDVector im_;
};

}  // namespace qdb

#endif  // QDB_SIM_STATE_VECTOR_H_
