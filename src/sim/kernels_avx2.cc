/// AVX2 implementations of the range kernels (kernels.h).
///
/// Every function carries a per-function target attribute instead of
/// building the whole TU with -mavx2, so this file links into a plain
/// x86-64 binary and the vector paths are only *executed* after the CPUID
/// dispatch in simd.cc says the CPU has AVX2.
///
/// Bit-identity with the scalar path (see kernels.h) rests on three rules:
///   * only _mm256_{mul,add,sub,div}_pd — never FMA — and the TU is built
///     with -ffp-contract=off so the compiler cannot introduce one;
///   * per-element formulas replicate the scalar product/summation order;
///   * reductions keep the scalar 4-lane protocol: vector lane j holds
///     protocol lane j, tails fold into the spilled lanes, and the final
///     combine is (l0 + l1) + (l2 + l3).

#include "sim/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>

#define QDB_AVX2 __attribute__((target("avx2")))

namespace qdb {
namespace simd {

namespace {

/// Scalar 2x2 row update for run tails inside the AVX2 TU; identical
/// formula to kernels.cc Update1Q.
QDB_AVX2 inline void Update1QTail(double* re, double* im, uint64_t i0,
                                  uint64_t i1, const double* m) {
  const double a0r = re[i0], a0i = im[i0];
  const double a1r = re[i1], a1i = im[i1];
  re[i0] = (m[0] * a0r - m[1] * a0i) + (m[2] * a1r - m[3] * a1i);
  im[i0] = (m[0] * a0i + m[1] * a0r) + (m[2] * a1i + m[3] * a1r);
  re[i1] = (m[4] * a0r - m[5] * a0i) + (m[6] * a1r - m[7] * a1i);
  im[i1] = (m[4] * a0i + m[5] * a0r) + (m[6] * a1i + m[7] * a1r);
}

/// Vectorized 2x2 row update on four consecutive pairs starting at i0
/// (pairs contiguous: i1 plane at constant offset `stride`).
QDB_AVX2 inline void Update1QVec(double* re, double* im, uint64_t i0,
                                 uint64_t stride, __m256d m00r, __m256d m00i,
                                 __m256d m01r, __m256d m01i, __m256d m10r,
                                 __m256d m10i, __m256d m11r, __m256d m11i) {
  const __m256d a0r = _mm256_loadu_pd(re + i0);
  const __m256d a0i = _mm256_loadu_pd(im + i0);
  const __m256d a1r = _mm256_loadu_pd(re + i0 + stride);
  const __m256d a1i = _mm256_loadu_pd(im + i0 + stride);
  _mm256_storeu_pd(
      re + i0,
      _mm256_add_pd(
          _mm256_sub_pd(_mm256_mul_pd(m00r, a0r), _mm256_mul_pd(m00i, a0i)),
          _mm256_sub_pd(_mm256_mul_pd(m01r, a1r), _mm256_mul_pd(m01i, a1i))));
  _mm256_storeu_pd(
      im + i0,
      _mm256_add_pd(
          _mm256_add_pd(_mm256_mul_pd(m00r, a0i), _mm256_mul_pd(m00i, a0r)),
          _mm256_add_pd(_mm256_mul_pd(m01r, a1i), _mm256_mul_pd(m01i, a1r))));
  _mm256_storeu_pd(
      re + i0 + stride,
      _mm256_add_pd(
          _mm256_sub_pd(_mm256_mul_pd(m10r, a0r), _mm256_mul_pd(m10i, a0i)),
          _mm256_sub_pd(_mm256_mul_pd(m11r, a1r), _mm256_mul_pd(m11i, a1i))));
  _mm256_storeu_pd(
      im + i0 + stride,
      _mm256_add_pd(
          _mm256_add_pd(_mm256_mul_pd(m10r, a0i), _mm256_mul_pd(m10i, a0r)),
          _mm256_add_pd(_mm256_mul_pd(m11r, a1i), _mm256_mul_pd(m11i, a1r))));
}

/// Folds a 4-lane accumulator register plus a scalar tail into the
/// protocol result (l0 + l1) + (l2 + l3). `tail_begin` is the first index
/// not covered by the vector loop; lane assignment (i - b) & 3 continues
/// across the boundary because the vector loop always consumes multiples
/// of four elements starting at b.
QDB_AVX2 inline double ReduceLanes(__m256d acc, const double* lane_tail) {
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  for (int j = 0; j < 4; ++j) lanes[j] += lane_tail[j];
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

QDB_AVX2 void Apply1QRangeAvx2(double* re, double* im, uint64_t pb, uint64_t pe,
                               uint64_t stride, const double* m) {
  if (stride < 4) {
    Apply1QRangeScalar(re, im, pb, pe, stride, m);
    return;
  }
  const __m256d m00r = _mm256_set1_pd(m[0]), m00i = _mm256_set1_pd(m[1]);
  const __m256d m01r = _mm256_set1_pd(m[2]), m01i = _mm256_set1_pd(m[3]);
  const __m256d m10r = _mm256_set1_pd(m[4]), m10i = _mm256_set1_pd(m[5]);
  const __m256d m11r = _mm256_set1_pd(m[6]), m11i = _mm256_set1_pd(m[7]);
  uint64_t p = pb;
  while (p < pe) {
    // Pairs sharing the same high bits map to contiguous i0; walk one such
    // run at a time so the inner loop is a straight 4-wide stream.
    const uint64_t base = p & ~(stride - 1);
    const uint64_t run_end = std::min(pe, base + stride);
    uint64_t i0 = (base << 1) | (p & (stride - 1));
    for (; p + 4 <= run_end; p += 4, i0 += 4) {
      Update1QVec(re, im, i0, stride, m00r, m00i, m01r, m01i, m10r, m10i, m11r,
                  m11i);
    }
    for (; p < run_end; ++p, ++i0) {
      Update1QTail(re, im, i0, i0 + stride, m);
    }
  }
}

QDB_AVX2 void Controlled1QRangeAvx2(double* re, double* im, uint64_t pb,
                                    uint64_t pe, uint64_t stride,
                                    uint64_t cmask, const double* m) {
  // cmask < stride: the control bit varies inside an i0-run, so the dense
  // run walk below would need per-lane blending; the scalar path's
  // branch-and-skip is competitive there.
  if (stride < 4 || cmask < stride) {
    Controlled1QRangeScalar(re, im, pb, pe, stride, cmask, m);
    return;
  }
  const __m256d m00r = _mm256_set1_pd(m[0]), m00i = _mm256_set1_pd(m[1]);
  const __m256d m01r = _mm256_set1_pd(m[2]), m01i = _mm256_set1_pd(m[3]);
  const __m256d m10r = _mm256_set1_pd(m[4]), m10i = _mm256_set1_pd(m[5]);
  const __m256d m11r = _mm256_set1_pd(m[6]), m11i = _mm256_set1_pd(m[7]);
  uint64_t p = pb;
  while (p < pe) {
    const uint64_t base = p & ~(stride - 1);
    const uint64_t run_end = std::min(pe, base + stride);
    // cmask > stride (control and target are distinct bits): the control
    // bit is constant across the whole run — decide once.
    if (!((base << 1) & cmask)) {
      p = run_end;
      continue;
    }
    uint64_t i0 = (base << 1) | (p & (stride - 1));
    for (; p + 4 <= run_end; p += 4, i0 += 4) {
      Update1QVec(re, im, i0, stride, m00r, m00i, m01r, m01i, m10r, m10i, m11r,
                  m11i);
    }
    for (; p < run_end; ++p, ++i0) {
      Update1QTail(re, im, i0, i0 + stride, m);
    }
  }
}

QDB_AVX2 void Diag1QRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                              uint64_t mask, const double* d) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256d d0r = _mm256_set1_pd(d[0]), d0i = _mm256_set1_pd(d[1]);
  const __m256d d1r = _mm256_set1_pd(d[2]), d1i = _mm256_set1_pd(d[3]);
  const __m256i vfour = _mm256_set1_epi64x(4);
  __m256i vi = _mm256_set_epi64x(
      static_cast<long long>(b + 3), static_cast<long long>(b + 2),
      static_cast<long long>(b + 1), static_cast<long long>(b));
  uint64_t i = b;
  for (; i + 4 <= e; i += 4, vi = _mm256_add_epi64(vi, vfour)) {
    const __m256d sel = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(vi, vmask), vmask));
    const __m256d dr = _mm256_blendv_pd(d0r, d1r, sel);
    const __m256d di = _mm256_blendv_pd(d0i, d1i, sel);
    const __m256d ar = _mm256_loadu_pd(re + i);
    const __m256d ai = _mm256_loadu_pd(im + i);
    _mm256_storeu_pd(
        re + i, _mm256_sub_pd(_mm256_mul_pd(ar, dr), _mm256_mul_pd(ai, di)));
    _mm256_storeu_pd(
        im + i, _mm256_add_pd(_mm256_mul_pd(ar, di), _mm256_mul_pd(ai, dr)));
  }
  if (i < e) Diag1QRangeScalar(re, im, i, e, mask, d);
}

QDB_AVX2 void Diag2QRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                              uint64_t amask, uint64_t bmask, const double* d) {
  const __m256i va = _mm256_set1_epi64x(static_cast<long long>(amask));
  const __m256i vb = _mm256_set1_epi64x(static_cast<long long>(bmask));
  const __m256d d0r = _mm256_set1_pd(d[0]), d0i = _mm256_set1_pd(d[1]);
  const __m256d d1r = _mm256_set1_pd(d[2]), d1i = _mm256_set1_pd(d[3]);
  const __m256d d2r = _mm256_set1_pd(d[4]), d2i = _mm256_set1_pd(d[5]);
  const __m256d d3r = _mm256_set1_pd(d[6]), d3i = _mm256_set1_pd(d[7]);
  const __m256i vfour = _mm256_set1_epi64x(4);
  __m256i vi = _mm256_set_epi64x(
      static_cast<long long>(b + 3), static_cast<long long>(b + 2),
      static_cast<long long>(b + 1), static_cast<long long>(b));
  uint64_t i = b;
  for (; i + 4 <= e; i += 4, vi = _mm256_add_epi64(vi, vfour)) {
    const __m256d sela = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(vi, va), va));
    const __m256d selb = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(vi, vb), vb));
    // idx = (abit ? 2 : 0) | (bbit ? 1 : 0): inner blend on the b bit,
    // outer blend on the a bit.
    const __m256d dr = _mm256_blendv_pd(_mm256_blendv_pd(d0r, d1r, selb),
                                        _mm256_blendv_pd(d2r, d3r, selb), sela);
    const __m256d di = _mm256_blendv_pd(_mm256_blendv_pd(d0i, d1i, selb),
                                        _mm256_blendv_pd(d2i, d3i, selb), sela);
    const __m256d ar = _mm256_loadu_pd(re + i);
    const __m256d ai = _mm256_loadu_pd(im + i);
    _mm256_storeu_pd(
        re + i, _mm256_sub_pd(_mm256_mul_pd(ar, dr), _mm256_mul_pd(ai, di)));
    _mm256_storeu_pd(
        im + i, _mm256_add_pd(_mm256_mul_pd(ar, di), _mm256_mul_pd(ai, dr)));
  }
  if (i < e) Diag2QRangeScalar(re, im, i, e, amask, bmask, d);
}

QDB_AVX2 void Apply2QRangeAvx2(double* re, double* im, uint64_t gb, uint64_t ge,
                               uint64_t amask, uint64_t bmask, uint64_t lo_keep,
                               uint64_t mid_keep, const double (*mr)[4],
                               const double (*mi)[4]) {
  // Need four consecutive groups with contiguous representatives, i.e. the
  // low operand bit at position >= 2.
  if ((lo_keep & 3) != 3) {
    Apply2QRangeScalar(re, im, gb, ge, amask, bmask, lo_keep, mid_keep, mr, mi);
    return;
  }
  uint64_t g = gb;
  while (g < ge) {
    const uint64_t run_end = std::min(ge, (g | lo_keep) + 1);
    uint64_t i = (g & lo_keep) | ((g & mid_keep) << 1) |
                 ((g & ~(lo_keep | mid_keep)) << 2);
    for (; g + 4 <= run_end; g += 4, i += 4) {
      // Both operand bits are clear in i, so OR-ing masks is addition and
      // each of the four basis offsets is a contiguous 4-element stream.
      const uint64_t idx[4] = {i, i + bmask, i + amask, i + amask + bmask};
      __m256d vr[4], vvi[4];
      for (int c = 0; c < 4; ++c) {
        vr[c] = _mm256_loadu_pd(re + idx[c]);
        vvi[c] = _mm256_loadu_pd(im + idx[c]);
      }
      for (int r = 0; r < 4; ++r) {
        __m256d out_r = _mm256_setzero_pd();
        __m256d out_i = _mm256_setzero_pd();
        for (int col = 0; col < 4; ++col) {
          const __m256d cr = _mm256_set1_pd(mr[r][col]);
          const __m256d ci = _mm256_set1_pd(mi[r][col]);
          out_r = _mm256_add_pd(
              out_r,
              _mm256_sub_pd(_mm256_mul_pd(cr, vr[col]),
                            _mm256_mul_pd(ci, vvi[col])));
          out_i = _mm256_add_pd(
              out_i,
              _mm256_add_pd(_mm256_mul_pd(cr, vvi[col]),
                            _mm256_mul_pd(ci, vr[col])));
        }
        _mm256_storeu_pd(re + idx[r], out_r);
        _mm256_storeu_pd(im + idx[r], out_i);
      }
    }
    if (g < run_end) {
      Apply2QRangeScalar(re, im, g, run_end, amask, bmask, lo_keep, mid_keep,
                         mr, mi);
      g = run_end;
    }
  }
}

QDB_AVX2 void NormsRangeAvx2(const double* re, const double* im, uint64_t b,
                             uint64_t e, double* out) {
  uint64_t i = b;
  for (; i + 4 <= e; i += 4) {
    const __m256d ar = _mm256_loadu_pd(re + i);
    const __m256d ai = _mm256_loadu_pd(im + i);
    _mm256_storeu_pd(
        out + i, _mm256_add_pd(_mm256_mul_pd(ar, ar), _mm256_mul_pd(ai, ai)));
  }
  for (; i < e; ++i) out[i] = re[i] * re[i] + im[i] * im[i];
}

QDB_AVX2 double MaskedNormSqRangeAvx2(const double* re, const double* im,
                                      uint64_t b, uint64_t e, uint64_t mask) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vfour = _mm256_set1_epi64x(4);
  __m256i vi = _mm256_set_epi64x(
      static_cast<long long>(b + 3), static_cast<long long>(b + 2),
      static_cast<long long>(b + 1), static_cast<long long>(b));
  __m256d acc = _mm256_setzero_pd();
  uint64_t i = b;
  for (; i + 4 <= e; i += 4, vi = _mm256_add_epi64(vi, vfour)) {
    const __m256d hit = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(vi, vmask), vmask));
    const __m256d ar = _mm256_loadu_pd(re + i);
    const __m256d ai = _mm256_loadu_pd(im + i);
    const __m256d v = _mm256_and_pd(
        _mm256_add_pd(_mm256_mul_pd(ar, ar), _mm256_mul_pd(ai, ai)), hit);
    acc = _mm256_add_pd(acc, v);
  }
  double tail[4] = {0.0, 0.0, 0.0, 0.0};
  for (; i < e; ++i) {
    const double v =
        ((i & mask) == mask) ? re[i] * re[i] + im[i] * im[i] : 0.0;
    tail[(i - b) & 3] += v;
  }
  return ReduceLanes(acc, tail);
}

QDB_AVX2 double CollapseRangeAvx2(double* re, double* im, uint64_t b,
                                  uint64_t e, uint64_t mask, uint64_t keep) {
  const __m256i vmask = _mm256_set1_epi64x(static_cast<long long>(mask));
  const __m256i vkeep = _mm256_set1_epi64x(static_cast<long long>(keep));
  const __m256i vfour = _mm256_set1_epi64x(4);
  __m256i vi = _mm256_set_epi64x(
      static_cast<long long>(b + 3), static_cast<long long>(b + 2),
      static_cast<long long>(b + 1), static_cast<long long>(b));
  __m256d acc = _mm256_setzero_pd();
  uint64_t i = b;
  for (; i + 4 <= e; i += 4, vi = _mm256_add_epi64(vi, vfour)) {
    const __m256d hit = _mm256_castsi256_pd(
        _mm256_cmpeq_epi64(_mm256_and_si256(vi, vmask), vkeep));
    // Rejected lanes zero in place; their norm contribution is then an
    // exact +0.0, matching the scalar protocol.
    const __m256d ar = _mm256_and_pd(_mm256_loadu_pd(re + i), hit);
    const __m256d ai = _mm256_and_pd(_mm256_loadu_pd(im + i), hit);
    _mm256_storeu_pd(re + i, ar);
    _mm256_storeu_pd(im + i, ai);
    acc = _mm256_add_pd(acc,
                        _mm256_add_pd(_mm256_mul_pd(ar, ar),
                                      _mm256_mul_pd(ai, ai)));
  }
  double tail[4] = {0.0, 0.0, 0.0, 0.0};
  for (; i < e; ++i) {
    double v = 0.0;
    if ((i & mask) == keep) {
      v = re[i] * re[i] + im[i] * im[i];
    } else {
      re[i] = 0.0;
      im[i] = 0.0;
    }
    tail[(i - b) & 3] += v;
  }
  return ReduceLanes(acc, tail);
}

QDB_AVX2 void DivRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                           double divisor) {
  const __m256d vd = _mm256_set1_pd(divisor);
  uint64_t i = b;
  for (; i + 4 <= e; i += 4) {
    _mm256_storeu_pd(re + i, _mm256_div_pd(_mm256_loadu_pd(re + i), vd));
    _mm256_storeu_pd(im + i, _mm256_div_pd(_mm256_loadu_pd(im + i), vd));
  }
  for (; i < e; ++i) {
    re[i] /= divisor;
    im[i] /= divisor;
  }
}

QDB_AVX2 void ProductStateRangeAvx2(double* re, double* im, uint64_t b,
                                    uint64_t e, const double* high_re,
                                    const double* high_im,
                                    const double* low_re,
                                    const double* low_im, int low_bits) {
  const uint64_t low_mask = (uint64_t{1} << low_bits) - 1;
  uint64_t i = b;
  while (i < e) {
    // One row shares its high factor; its low indices are contiguous.
    const uint64_t h = i >> low_bits;
    const uint64_t stop = std::min(e, (h + 1) << low_bits);
    const double hr = high_re[h], hi = high_im[h];
    const __m256d vhr = _mm256_set1_pd(hr), vhi = _mm256_set1_pd(hi);
    const double* lr = low_re + (i & low_mask) - i;
    const double* li = low_im + (i & low_mask) - i;
    for (; i + 4 <= stop; i += 4) {
      const __m256d r = _mm256_loadu_pd(lr + i);
      const __m256d m = _mm256_loadu_pd(li + i);
      _mm256_storeu_pd(re + i, _mm256_sub_pd(_mm256_mul_pd(vhr, r),
                                             _mm256_mul_pd(vhi, m)));
      _mm256_storeu_pd(im + i, _mm256_add_pd(_mm256_mul_pd(vhr, m),
                                             _mm256_mul_pd(vhi, r)));
    }
    for (; i < stop; ++i) {
      re[i] = hr * lr[i] - hi * li[i];
      im[i] = hr * li[i] + hi * lr[i];
    }
  }
}

QDB_AVX2 void WalshHadamardAvx2(double* table, int bits) {
  if (bits < 3) {
    WalshHadamardScalar(table, bits);
    return;
  }
  const uint64_t size = uint64_t{1} << bits;
  // Stages h = 1 and h = 2 inside each 4-vector: lanes pair (0,1),(2,3),
  // then (0,2),(1,3); the blend keeps x + y in the low and x − y in the
  // high member of each pair, as the scalar stage writes them.
  for (uint64_t k = 0; k < size; k += 4) {
    __m256d v = _mm256_loadu_pd(table + k);
    __m256d x = _mm256_movedup_pd(v);       // a0 a0 a2 a2
    __m256d y = _mm256_permute_pd(v, 0xF);  // a1 a1 a3 a3
    v = _mm256_blend_pd(_mm256_add_pd(x, y), _mm256_sub_pd(x, y), 0xA);
    x = _mm256_permute2f128_pd(v, v, 0x00);  // b0 b1 b0 b1
    y = _mm256_permute2f128_pd(v, v, 0x11);  // b2 b3 b2 b3
    v = _mm256_blend_pd(_mm256_add_pd(x, y), _mm256_sub_pd(x, y), 0xC);
    _mm256_storeu_pd(table + k, v);
  }
  for (uint64_t h = 4; h < size; h <<= 1) {
    for (uint64_t b = 0; b < size; b += 2 * h) {
      for (uint64_t k = b; k < b + h; k += 4) {
        const __m256d x = _mm256_loadu_pd(table + k);
        const __m256d y = _mm256_loadu_pd(table + k + h);
        _mm256_storeu_pd(table + k, _mm256_add_pd(x, y));
        _mm256_storeu_pd(table + k + h, _mm256_sub_pd(x, y));
      }
    }
  }
}

QDB_AVX2 void SinCosRangeAvx2(const double* x, double* sn, double* cs,
                               uint64_t count) {
  using namespace sincos;
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d max_arg = _mm256_set1_pd(kMaxArg);
  const __m256d inv_pio2 = _mm256_set1_pd(kInvPio2);
  const __m256d round = _mm256_set1_pd(kRound);
  const __m256d pio2_hi = _mm256_set1_pd(kPio2Hi);
  const __m256d pio2_mid = _mm256_set1_pd(kPio2Mid);
  const __m256d pio2_lo = _mm256_set1_pd(kPio2Lo);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d s1 = _mm256_set1_pd(kS1), s2 = _mm256_set1_pd(kS2);
  const __m256d s3 = _mm256_set1_pd(kS3), s4 = _mm256_set1_pd(kS4);
  const __m256d s5 = _mm256_set1_pd(kS5), s6 = _mm256_set1_pd(kS6);
  const __m256d c1 = _mm256_set1_pd(kC1), c2 = _mm256_set1_pd(kC2);
  const __m256d c3 = _mm256_set1_pd(kC3), c4 = _mm256_set1_pd(kC4);
  const __m256d c5 = _mm256_set1_pd(kC5), c6 = _mm256_set1_pd(kC6);
  uint64_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
    const __m256d in_range =
        _mm256_cmp_pd(_mm256_andnot_pd(sign, xv), max_arg, _CMP_LE_OQ);
    if (_mm256_movemask_pd(in_range) != 0xF) {
      // A lane beyond the reduction's range (or NaN): the scalar path gives
      // every lane its exact scalar bits, libm where out of range.
      SinCosRangeScalar(x + i, sn + i, cs + i, 4);
      continue;
    }
    const __m256d t = _mm256_add_pd(_mm256_mul_pd(xv, inv_pio2), round);
    const __m256d k = _mm256_sub_pd(t, round);
    const __m256d r = _mm256_sub_pd(
        _mm256_sub_pd(_mm256_sub_pd(xv, _mm256_mul_pd(k, pio2_hi)),
                      _mm256_mul_pd(k, pio2_mid)),
        _mm256_mul_pd(k, pio2_lo));
    const __m256d z = _mm256_mul_pd(r, r);
    // ps = S2 + z*(S3 + z*(S4 + z*(S5 + z*S6)))
    __m256d ps = _mm256_add_pd(s5, _mm256_mul_pd(z, s6));
    ps = _mm256_add_pd(s4, _mm256_mul_pd(z, ps));
    ps = _mm256_add_pd(s3, _mm256_mul_pd(z, ps));
    ps = _mm256_add_pd(s2, _mm256_mul_pd(z, ps));
    const __m256d s = _mm256_add_pd(
        r, _mm256_mul_pd(_mm256_mul_pd(z, r),
                         _mm256_add_pd(s1, _mm256_mul_pd(z, ps))));
    // pc = z*(C1 + z*(C2 + z*C3)) + w*w*(C4 + z*(C5 + z*C6)), w = z*z
    const __m256d w = _mm256_mul_pd(z, z);
    __m256d lo = _mm256_add_pd(c2, _mm256_mul_pd(z, c3));
    lo = _mm256_mul_pd(z, _mm256_add_pd(c1, _mm256_mul_pd(z, lo)));
    __m256d hi = _mm256_add_pd(c5, _mm256_mul_pd(z, c6));
    hi = _mm256_mul_pd(_mm256_mul_pd(w, w),
                       _mm256_add_pd(c4, _mm256_mul_pd(z, hi)));
    const __m256d pc = _mm256_add_pd(lo, hi);
    const __m256d hz = _mm256_mul_pd(half, z);
    const __m256d one_minus = _mm256_sub_pd(one, hz);
    const __m256d cv0 = _mm256_add_pd(
        one_minus,
        _mm256_add_pd(_mm256_sub_pd(_mm256_sub_pd(one, one_minus), hz),
                      _mm256_mul_pd(z, pc)));
    // Quadrant bits of t's mantissa: bit 0 swaps sin and cos, bit 1 negates
    // sin, bit 1 of q + 1 negates cos.
    const __m256i q = _mm256_castpd_si256(t);
    const __m256d swap = _mm256_castsi256_pd(_mm256_slli_epi64(q, 63));
    const __m256d neg_s =
        _mm256_and_pd(sign, _mm256_castsi256_pd(_mm256_slli_epi64(q, 62)));
    const __m256d neg_c = _mm256_and_pd(
        sign, _mm256_castsi256_pd(_mm256_slli_epi64(
                  _mm256_add_epi64(q, _mm256_set1_epi64x(1)), 62)));
    const __m256d sv = _mm256_blendv_pd(s, cv0, swap);
    const __m256d cv = _mm256_blendv_pd(cv0, s, swap);
    _mm256_storeu_pd(sn + i, _mm256_xor_pd(sv, neg_s));
    _mm256_storeu_pd(cs + i, _mm256_xor_pd(cv, neg_c));
  }
  SinCosRangeScalar(x + i, sn + i, cs + i, count - i);
}

}  // namespace simd
}  // namespace qdb

#else  // !x86: the dispatcher never selects kAvx2, but keep the symbols.

namespace qdb {
namespace simd {

void Apply1QRangeAvx2(double* re, double* im, uint64_t pb, uint64_t pe,
                      uint64_t stride, const double* m) {
  Apply1QRangeScalar(re, im, pb, pe, stride, m);
}
void Controlled1QRangeAvx2(double* re, double* im, uint64_t pb, uint64_t pe,
                           uint64_t stride, uint64_t cmask, const double* m) {
  Controlled1QRangeScalar(re, im, pb, pe, stride, cmask, m);
}
void Diag1QRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                     uint64_t mask, const double* d) {
  Diag1QRangeScalar(re, im, b, e, mask, d);
}
void Diag2QRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                     uint64_t amask, uint64_t bmask, const double* d) {
  Diag2QRangeScalar(re, im, b, e, amask, bmask, d);
}
void Apply2QRangeAvx2(double* re, double* im, uint64_t gb, uint64_t ge,
                      uint64_t amask, uint64_t bmask, uint64_t lo_keep,
                      uint64_t mid_keep, const double (*mr)[4],
                      const double (*mi)[4]) {
  Apply2QRangeScalar(re, im, gb, ge, amask, bmask, lo_keep, mid_keep, mr, mi);
}
void NormsRangeAvx2(const double* re, const double* im, uint64_t b, uint64_t e,
                    double* out) {
  NormsRangeScalar(re, im, b, e, out);
}
double MaskedNormSqRangeAvx2(const double* re, const double* im, uint64_t b,
                             uint64_t e, uint64_t mask) {
  return MaskedNormSqRangeScalar(re, im, b, e, mask);
}
double CollapseRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                         uint64_t mask, uint64_t keep) {
  return CollapseRangeScalar(re, im, b, e, mask, keep);
}
void DivRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                  double divisor) {
  DivRangeScalar(re, im, b, e, divisor);
}
void ProductStateRangeAvx2(double* re, double* im, uint64_t b, uint64_t e,
                           const double* high_re, const double* high_im,
                           const double* low_re, const double* low_im,
                           int low_bits) {
  ProductStateRangeScalar(re, im, b, e, high_re, high_im, low_re, low_im,
                          low_bits);
}
void SinCosRangeAvx2(const double* x, double* sn, double* cs, uint64_t count) {
  SinCosRangeScalar(x, sn, cs, count);
}
void WalshHadamardAvx2(double* table, int bits) {
  WalshHadamardScalar(table, bits);
}

}  // namespace simd
}  // namespace qdb

#endif
