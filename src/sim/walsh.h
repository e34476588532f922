/// \file walsh.h
/// \brief Walsh–Hadamard expansions of functions on basis indices — the
/// shared machinery behind batched Pauli-sum expectations, fused diagonal
/// phase runs and Ising diagonals.
///
/// Every function f on n-bit basis indices has a unique expansion
///
///   f(i) = Σ_m w_m · (−1)^{|i ∧ m|}
///
/// over masks m. A weighted Z-string is one term (m = its Z bits); the phase
/// function of a diagonal k-qubit gate has at most 2^k terms over its operand
/// bits. Evaluating f at all 2^n indices term by term costs O(terms · 2^n);
/// the fast Walsh–Hadamard transform of the coefficient table costs
/// O(n · 2^n) whatever the term count.
///
/// Sweeps over a state evaluate f one aligned block of 2^kWalshBlockBits
/// indices at a time. Inside a block the high index bits are fixed, so they
/// only flip the sign of each term: the block folds those signs into a table
/// over its low bits and transforms that table (or, with fewer terms than
/// table bits, sums the terms over the table directly). Block boundaries, fill order
/// and butterfly order depend only on the terms and the indices, so every
/// sweep is bit-identical at any thread count. The table code is built
/// without FP contraction, and the transforms (simd::WalshHadamard)
/// and phase sweeps' sin/cos (simd::SinCosRange, sim/kernels.h) perform the
/// same operations in the same order on their scalar and AVX2 paths; so
/// every sweep is also identical at every SIMD dispatch level.

#ifndef QDB_SIM_WALSH_H_
#define QDB_SIM_WALSH_H_

#include <cstdint>
#include <vector>

#include "sim/simd.h"

namespace qdb {

/// log2 of the block a sweep evaluates f over: a 2^11-entry table is 16 KiB,
/// L1-resident, and every ThreadPool chunk (at least 2048 wide, a power of
/// two for power-of-two ranges) is a whole number of blocks.
inline constexpr int kWalshBlockBits = 11;

/// \brief One term w · (−1)^{|i ∧ mask|} of a Walsh expansion.
struct WalshTerm {
  uint64_t mask = 0;
  double coefficient = 0.0;
};

/// In-place unnormalized fast Walsh–Hadamard transform of table[0, 2^bits):
/// afterwards table[i] = Σ_s old[s] · (−1)^{|i ∧ s|}. simd::WalshHadamard
/// at the active level; every level gives the same bits.
void FastWalshHadamard(double* table, int bits);

/// Multiplies amplitude i of the (re, im) planes by e^{iΦ(i)} for every i in
/// [begin, end), with Φ = Σ `phase`. `begin` is a multiple of
/// 2^kWalshBlockBits; `end` is too unless it is the end of the state. The
/// phases' sin/cos come from simd::SinCosRange at `level`, which gives the
/// same bits at every level.
void ApplyWalshPhaseRange(simd::SimdLevel level,
                          const std::vector<WalshTerm>& phase, double* re,
                          double* im, uint64_t begin, uint64_t end);

/// Σ_{i ∈ [begin, end)} Re(conj(a[i ^ xmask]) · a[i] · W(i)) over the (re, im)
/// planes, with W = Σ `w_re` + i·Σ `w_im`. Alignment as for
/// ApplyWalshPhaseRange. This is the expectation share of every Pauli string
/// with X-mask `xmask` when W carries each string's c·i^{#Y} on its Y|Z mask.
/// `level` picks the transform's dispatch level; the result is the same at
/// every level.
double WalshCorrelationRange(simd::SimdLevel level,
                             const std::vector<WalshTerm>& w_re,
                             const std::vector<WalshTerm>& w_im,
                             uint64_t xmask, const double* re,
                             const double* im, uint64_t begin, uint64_t end);

}  // namespace qdb

#endif  // QDB_SIM_WALSH_H_
