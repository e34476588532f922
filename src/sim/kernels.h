/// \file kernels.h
/// \brief Range-based amplitude kernels over structure-of-arrays planes.
///
/// Every kernel operates on two raw double planes (re, im) holding the real
/// and imaginary amplitude components, over an *absolute* index subrange —
/// pair indices for dense 1Q, group indices for dense 2Q, element indices
/// for diagonals and reductions. Absolute ranges make the same kernel
/// serve three callers:
///   * StateVector methods chunking the full state across the ThreadPool,
///   * CompiledCircuit's cache-blocked executor applying a run of fused ops
///     block by block so the working set stays L2-resident,
///   * tests sweeping subranges directly.
///
/// ## Bit-identity contract
///
/// For any fixed subrange, the scalar and AVX2 implementations produce
/// bit-identical planes and bit-identical reduction values. Gate kernels
/// are element-independent, so it suffices that both paths use the same
/// products and the same left-to-right summation order per element (the
/// kernel TUs are built with -ffp-contract=off, and the AVX2 path uses only
/// mul/add/sub/div — never FMA — so neither path contracts).
///
/// Reductions additionally fix the *accumulation order* with a 4-lane
/// protocol shared by both paths: lane[(i - begin) & 3] accumulates element
/// i's value (0.0 for predicated-out elements — exact, since all summands
/// are non-negative), and the result is (l0 + l1) + (l2 + l3). The scalar
/// path keeps four named accumulators; the AVX2 path keeps them as the four
/// lanes of one vector register. Same lanes, same order, same bits.
///
/// Matrix entries arrive as interleaved {re, im} scalars so the complex
/// formulas below match the historical std::complex fast path exactly for
/// finite values: (a*b).re = ar*br - ai*bi, (a*b).im = ar*bi + ai*br, and
/// row updates sum left to right.

#ifndef QDB_SIM_KERNELS_H_
#define QDB_SIM_KERNELS_H_

#include <cstdint>

#include "sim/simd.h"

namespace qdb {
namespace simd {

// ---- Dense single-qubit -----------------------------------------------------

/// Applies the 2x2 unitary m = {m00r,m00i, m01r,m01i, m10r,m10i, m11r,m11i}
/// to amplitude pairs p in [pb, pe), where pair p addresses
/// i0 = ((p & ~(stride-1)) << 1) | (p & (stride-1)) and i1 = i0 + stride.
void Apply1QRange(SimdLevel level, double* re, double* im, uint64_t pb,
                  uint64_t pe, uint64_t stride, const double* m);

/// Apply1QRange restricted to pairs whose control bit is set:
/// acts only where (i0 & cmask) != 0.
void Controlled1QRange(SimdLevel level, double* re, double* im, uint64_t pb,
                       uint64_t pe, uint64_t stride, uint64_t cmask,
                       const double* m);

// ---- Diagonals --------------------------------------------------------------

/// a[i] *= (i & mask) ? d1 : d0 over elements [b, e);
/// d = {d0r, d0i, d1r, d1i}.
void Diag1QRange(SimdLevel level, double* re, double* im, uint64_t b,
                 uint64_t e, uint64_t mask, const double* d);

/// a[i] *= d[((i & amask) ? 2 : 0) | ((i & bmask) ? 1 : 0)] over [b, e);
/// d = {d0r, d0i, d1r, d1i, d2r, d2i, d3r, d3i}.
void Diag2QRange(SimdLevel level, double* re, double* im, uint64_t b,
                 uint64_t e, uint64_t amask, uint64_t bmask, const double* d);

// ---- Dense two-qubit --------------------------------------------------------

/// Applies the 4x4 unitary (split planes mr/mi) to amplitude groups
/// g in [gb, ge). Group g expands to its representative index
/// i = (g & lo_keep) | ((g & mid_keep) << 1) | ((g & ~(lo_keep|mid_keep)) << 2)
/// and touches {i, i|bmask, i|amask, i|amask|bmask} (a = high operand bit).
void Apply2QRange(SimdLevel level, double* re, double* im, uint64_t gb,
                  uint64_t ge, uint64_t amask, uint64_t bmask, uint64_t lo_keep,
                  uint64_t mid_keep, const double (*mr)[4],
                  const double (*mi)[4]);

// ---- Product states ---------------------------------------------------------

/// Writes a product state over elements [b, e):
///   a[i] = high[i >> low_bits] · low[i & (2^low_bits − 1)],
/// each table given as split (re, im) planes. Every element costs the one
/// complex product (hr·lr − hi·li, hr·li + hi·lr), so any split of the state
/// into ranges writes the same bits.
void ProductStateRange(SimdLevel level, double* re, double* im, uint64_t b,
                       uint64_t e, const double* high_re,
                       const double* high_im, const double* low_re,
                       const double* low_im, int low_bits);

// ---- Walsh–Hadamard transform -----------------------------------------------

/// In-place unnormalized fast Walsh–Hadamard transform of table[0, 2^bits):
/// afterwards table[i] = Σ_s old[s] · (−1)^{|i ∧ s|}. Stage h = 1, 2, 4, …
/// replaces every pair (x, y) = (table[k], table[k + h]) with (x + y, x − y);
/// both levels run the same stages in the same order, so they agree bit for
/// bit.
void WalshHadamard(SimdLevel level, double* table, int bits);

// ---- Deterministic sin/cos --------------------------------------------------

/// Constants of SinCosRange, shared by its scalar and AVX2 implementations.
/// Reduction: k = round(x · 2/π) by the 1.5·2^52 rounding trick, then
/// r = ((x − k·kPio2Hi) − k·kPio2Mid) − k·kPio2Lo, with π/2 split so that
/// kPio2Hi and kPio2Mid carry 33 significant bits each: for |k| < 2^20 the
/// products k·kPio2Hi and k·kPio2Mid are exact and x − k·kPio2Hi is exact by
/// Sterbenz, so r is within an ulp of x − k·π/2. The polynomials are the
/// fdlibm minimax kernels for sin and cos on [−π/4, π/4].
namespace sincos {
inline constexpr double kMaxArg = 1e6;  ///< |x| ≤ 1e6 ⇒ |k| < 2^20.
inline constexpr double kInvPio2 = 6.36619772367581382433e-01;
inline constexpr double kRound = 6755399441055744.0;  // 1.5 · 2^52
inline constexpr double kPio2Hi = 1.57079632673412561417e+00;
inline constexpr double kPio2Mid = 6.07710050630396597660e-11;
inline constexpr double kPio2Lo = 2.02226624879595063154e-21;
inline constexpr double kS1 = -1.66666666666666324348e-01;
inline constexpr double kS2 = 8.33333333332248946124e-03;
inline constexpr double kS3 = -1.98412698298579493134e-04;
inline constexpr double kS4 = 2.75573137070700676789e-06;
inline constexpr double kS5 = -2.50507602534068634195e-08;
inline constexpr double kS6 = 1.58969099521155010221e-10;
inline constexpr double kC1 = 4.16666666666666019037e-02;
inline constexpr double kC2 = -1.38888888888741095749e-03;
inline constexpr double kC3 = 2.48015872894767294178e-05;
inline constexpr double kC4 = -2.75573143513906633035e-07;
inline constexpr double kC5 = 2.08757232129817482790e-09;
inline constexpr double kC6 = -1.13596475577881948265e-11;
}  // namespace sincos

/// sn[i] = sin(x[i]) and cs[i] = cos(x[i]) for i in [0, count). Where
/// |x[i]| ≤ sincos::kMaxArg: Cody–Waite reduction to r ∈ [−π/4, π/4] plus a
/// quadrant, fixed Horner polynomials in r, and a quadrant swap/negation —
/// the same operations in the same order on both levels, so scalar and AVX2
/// agree bit for bit. Elsewhere (|x| beyond the bound, NaN, ±Inf) both
/// levels call libm. Absolute error against libm stays near 1e-16 over the
/// reduced range (bounded in tests/simd_equivalence_test.cc).
void SinCosRange(SimdLevel level, const double* x, double* sn, double* cs,
                 uint64_t count);

// ---- Probability / norm reductions -----------------------------------------

/// out[i] = re[i]^2 + im[i]^2 for i in [b, e).
void NormsRange(SimdLevel level, const double* re, const double* im, uint64_t b,
                uint64_t e, double* out);

/// Σ_{i in [b,e)} re[i]^2 + im[i]^2, 4-lane accumulation protocol.
double NormSqRange(SimdLevel level, const double* re, const double* im,
                   uint64_t b, uint64_t e);

/// Σ over i in [b,e) with (i & mask) == mask of re[i]^2 + im[i]^2,
/// 4-lane accumulation protocol (masked-out elements contribute +0.0).
double MaskedNormSqRange(SimdLevel level, const double* re, const double* im,
                         uint64_t b, uint64_t e, uint64_t mask);

/// Measurement collapse fused with norm accumulation: zeroes every element
/// with (i & mask) != keep and returns Σ re^2 + im^2 over the kept branch
/// (4-lane protocol; rejected elements contribute +0.0).
double CollapseRange(SimdLevel level, double* re, double* im, uint64_t b,
                     uint64_t e, uint64_t mask, uint64_t keep);

/// re[i] /= divisor, im[i] /= divisor over [b, e). Division (not
/// reciprocal-multiply): IEEE division is correctly rounded, so scalar and
/// AVX2 agree bit for bit.
void DivRange(SimdLevel level, double* re, double* im, uint64_t b, uint64_t e,
              double divisor);

// ---- Per-level implementations (dispatch targets; exposed for tests) -------

void Apply1QRangeScalar(double* re, double* im, uint64_t pb, uint64_t pe,
                        uint64_t stride, const double* m);
void Controlled1QRangeScalar(double* re, double* im, uint64_t pb, uint64_t pe,
                             uint64_t stride, uint64_t cmask, const double* m);
void Diag1QRangeScalar(double* re, double* im, uint64_t b, uint64_t e,
                       uint64_t mask, const double* d);
void Diag2QRangeScalar(double* re, double* im, uint64_t b, uint64_t e,
                       uint64_t amask, uint64_t bmask, const double* d);
void Apply2QRangeScalar(double* re, double* im, uint64_t gb, uint64_t ge,
                        uint64_t amask, uint64_t bmask, uint64_t lo_keep,
                        uint64_t mid_keep, const double (*mr)[4],
                        const double (*mi)[4]);
void NormsRangeScalar(const double* re, const double* im, uint64_t b,
                      uint64_t e, double* out);
double NormSqRangeScalar(const double* re, const double* im, uint64_t b,
                         uint64_t e);
double MaskedNormSqRangeScalar(const double* re, const double* im, uint64_t b,
                               uint64_t e, uint64_t mask);
double CollapseRangeScalar(double* re, double* im, uint64_t b, uint64_t e,
                           uint64_t mask, uint64_t keep);
void DivRangeScalar(double* re, double* im, uint64_t b, uint64_t e,
                    double divisor);
void ProductStateRangeScalar(double* re, double* im, uint64_t b, uint64_t e,
                             const double* high_re, const double* high_im,
                             const double* low_re, const double* low_im,
                             int low_bits);
void SinCosRangeScalar(const double* x, double* sn, double* cs,
                       uint64_t count);
void WalshHadamardScalar(double* table, int bits);

void Apply1QRangeAvx2(double* re, double* im, uint64_t pb, uint64_t pe,
                      uint64_t stride, const double* m);
void Controlled1QRangeAvx2(double* re, double* im, uint64_t pb, uint64_t pe,
                           uint64_t stride, uint64_t cmask, const double* m);
void Diag1QRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                     uint64_t mask, const double* d);
void Diag2QRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                     uint64_t amask, uint64_t bmask, const double* d);
void Apply2QRangeAvx2(double* re, double* im, uint64_t gb, uint64_t ge,
                      uint64_t amask, uint64_t bmask, uint64_t lo_keep,
                      uint64_t mid_keep, const double (*mr)[4],
                      const double (*mi)[4]);
void NormsRangeAvx2(const double* re, const double* im, uint64_t b, uint64_t e,
                    double* out);
double NormSqRangeAvx2(const double* re, const double* im, uint64_t b,
                       uint64_t e);
double MaskedNormSqRangeAvx2(const double* re, const double* im, uint64_t b,
                             uint64_t e, uint64_t mask);
double CollapseRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                         uint64_t mask, uint64_t keep);
void DivRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                  double divisor);
void ProductStateRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                           const double* high_re, const double* high_im,
                           const double* low_re, const double* low_im,
                           int low_bits);
void SinCosRangeAvx2(const double* x, double* sn, double* cs, uint64_t count);
void WalshHadamardAvx2(double* table, int bits);

}  // namespace simd
}  // namespace qdb

#endif  // QDB_SIM_KERNELS_H_
