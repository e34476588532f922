/// Scalar reference implementations and the per-level dispatchers.
///
/// This TU is compiled with -ffp-contract=off (see src/CMakeLists.txt) so
/// the compiler cannot fuse a*b+c into an FMA: the AVX2 TU uses explicit
/// mul/add/sub intrinsics, and contraction on either side would break the
/// bit-identity contract documented in kernels.h.

#include "sim/kernels.h"

#include <cmath>
#include <cstring>

namespace qdb {
namespace simd {

namespace {

/// One complex 2x2 row update shared by the dense 1Q kernels. Matches the
/// libstdc++ std::complex fast path for finite values: each product is
/// (ar*br - ai*bi, ar*bi + ai*br) and the two products sum left to right.
inline void Update1Q(double* re, double* im, uint64_t i0, uint64_t i1,
                     const double* m) {
  const double a0r = re[i0], a0i = im[i0];
  const double a1r = re[i1], a1i = im[i1];
  re[i0] = (m[0] * a0r - m[1] * a0i) + (m[2] * a1r - m[3] * a1i);
  im[i0] = (m[0] * a0i + m[1] * a0r) + (m[2] * a1i + m[3] * a1r);
  re[i1] = (m[4] * a0r - m[5] * a0i) + (m[6] * a1r - m[7] * a1i);
  im[i1] = (m[4] * a0i + m[5] * a0r) + (m[6] * a1i + m[7] * a1r);
}

/// In-place a[i] *= d for one element; same operand order as the
/// historical `amps_[i] *= d` (std::complex operator*=).
inline void MulInPlace(double* re, double* im, uint64_t i, double dr,
                       double di) {
  const double ar = re[i], ai = im[i];
  re[i] = ar * dr - ai * di;
  im[i] = ar * di + ai * dr;
}

/// Combines the four protocol lanes: (l0 + l1) + (l2 + l3).
inline double CombineLanes(const double lanes[4]) {
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

// ---- Scalar implementations -------------------------------------------------

void Apply1QRangeScalar(double* re, double* im, uint64_t pb, uint64_t pe,
                        uint64_t stride, const double* m) {
  for (uint64_t p = pb; p < pe; ++p) {
    const uint64_t i0 = ((p & ~(stride - 1)) << 1) | (p & (stride - 1));
    Update1Q(re, im, i0, i0 + stride, m);
  }
}

void Controlled1QRangeScalar(double* re, double* im, uint64_t pb, uint64_t pe,
                             uint64_t stride, uint64_t cmask, const double* m) {
  for (uint64_t p = pb; p < pe; ++p) {
    const uint64_t i0 = ((p & ~(stride - 1)) << 1) | (p & (stride - 1));
    if (!(i0 & cmask)) continue;
    Update1Q(re, im, i0, i0 + stride, m);
  }
}

void Diag1QRangeScalar(double* re, double* im, uint64_t b, uint64_t e,
                       uint64_t mask, const double* d) {
  for (uint64_t i = b; i < e; ++i) {
    if (i & mask) {
      MulInPlace(re, im, i, d[2], d[3]);
    } else {
      MulInPlace(re, im, i, d[0], d[1]);
    }
  }
}

void Diag2QRangeScalar(double* re, double* im, uint64_t b, uint64_t e,
                       uint64_t amask, uint64_t bmask, const double* d) {
  for (uint64_t i = b; i < e; ++i) {
    const int idx = ((i & amask) ? 2 : 0) | ((i & bmask) ? 1 : 0);
    MulInPlace(re, im, i, d[2 * idx], d[2 * idx + 1]);
  }
}

void Apply2QRangeScalar(double* re, double* im, uint64_t gb, uint64_t ge,
                        uint64_t amask, uint64_t bmask, uint64_t lo_keep,
                        uint64_t mid_keep, const double (*mr)[4],
                        const double (*mi)[4]) {
  for (uint64_t g = gb; g < ge; ++g) {
    const uint64_t i = (g & lo_keep) | ((g & mid_keep) << 1) |
                       ((g & ~(lo_keep | mid_keep)) << 2);
    const uint64_t idx[4] = {i, i | bmask, i | amask, i | amask | bmask};
    const double vr[4] = {re[idx[0]], re[idx[1]], re[idx[2]], re[idx[3]]};
    const double vi[4] = {im[idx[0]], im[idx[1]], im[idx[2]], im[idx[3]]};
    for (int r = 0; r < 4; ++r) {
      double out_r = 0.0, out_i = 0.0;
      for (int col = 0; col < 4; ++col) {
        out_r += mr[r][col] * vr[col] - mi[r][col] * vi[col];
        out_i += mr[r][col] * vi[col] + mi[r][col] * vr[col];
      }
      re[idx[r]] = out_r;
      im[idx[r]] = out_i;
    }
  }
}

void NormsRangeScalar(const double* re, const double* im, uint64_t b,
                      uint64_t e, double* out) {
  for (uint64_t i = b; i < e; ++i) {
    out[i] = re[i] * re[i] + im[i] * im[i];
  }
}

double NormSqRangeScalar(const double* re, const double* im, uint64_t b,
                         uint64_t e) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (uint64_t i = b; i < e; ++i) {
    lanes[(i - b) & 3] += re[i] * re[i] + im[i] * im[i];
  }
  return CombineLanes(lanes);
}

double MaskedNormSqRangeScalar(const double* re, const double* im, uint64_t b,
                               uint64_t e, uint64_t mask) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (uint64_t i = b; i < e; ++i) {
    const double v =
        ((i & mask) == mask) ? re[i] * re[i] + im[i] * im[i] : 0.0;
    lanes[(i - b) & 3] += v;
  }
  return CombineLanes(lanes);
}

double CollapseRangeScalar(double* re, double* im, uint64_t b, uint64_t e,
                           uint64_t mask, uint64_t keep) {
  double lanes[4] = {0.0, 0.0, 0.0, 0.0};
  for (uint64_t i = b; i < e; ++i) {
    double v = 0.0;
    if ((i & mask) == keep) {
      v = re[i] * re[i] + im[i] * im[i];
    } else {
      re[i] = 0.0;
      im[i] = 0.0;
    }
    lanes[(i - b) & 3] += v;
  }
  return CombineLanes(lanes);
}

void DivRangeScalar(double* re, double* im, uint64_t b, uint64_t e,
                    double divisor) {
  for (uint64_t i = b; i < e; ++i) {
    re[i] /= divisor;
    im[i] /= divisor;
  }
}

void ProductStateRangeScalar(double* re, double* im, uint64_t b, uint64_t e,
                             const double* high_re, const double* high_im,
                             const double* low_re, const double* low_im,
                             int low_bits) {
  const uint64_t low_mask = (uint64_t{1} << low_bits) - 1;
  for (uint64_t i = b; i < e; ++i) {
    const uint64_t h = i >> low_bits;
    const uint64_t l = i & low_mask;
    re[i] = high_re[h] * low_re[l] - high_im[h] * low_im[l];
    im[i] = high_re[h] * low_im[l] + high_im[h] * low_re[l];
  }
}

void WalshHadamardScalar(double* table, int bits) {
  const uint64_t size = uint64_t{1} << bits;
  for (uint64_t h = 1; h < size; h <<= 1) {
    for (uint64_t b = 0; b < size; b += 2 * h) {
      for (uint64_t k = b; k < b + h; ++k) {
        const double x = table[k];
        const double y = table[k + h];
        table[k] = x + y;
        table[k + h] = x - y;
      }
    }
  }
}

void SinCosRangeScalar(const double* x, double* sn, double* cs,
                       uint64_t count) {
  using namespace sincos;
  for (uint64_t i = 0; i < count; ++i) {
    const double xi = x[i];
    if (!(std::fabs(xi) <= kMaxArg)) {  // Also NaN.
      sn[i] = std::sin(xi);
      cs[i] = std::cos(xi);
      continue;
    }
    const double t = xi * kInvPio2 + kRound;
    const double k = t - kRound;
    uint64_t quadrant;
    std::memcpy(&quadrant, &t, sizeof(quadrant));  // Low bits: k mod 4.
    const double r = ((xi - k * kPio2Hi) - k * kPio2Mid) - k * kPio2Lo;
    const double z = r * r;
    const double ps = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
    const double s = r + (z * r) * (kS1 + z * ps);
    const double w = z * z;
    const double pc = z * (kC1 + z * (kC2 + z * kC3)) +
                      w * w * (kC4 + z * (kC5 + z * kC6));
    const double hz = 0.5 * z;
    const double one_minus = 1.0 - hz;
    const double c = one_minus + (((1.0 - one_minus) - hz) + z * pc);
    // Quadrant q: (sin, cos) = (s, c), (c, −s), (−s, −c), (−c, s).
    const double sv = (quadrant & 1) ? c : s;
    const double cv = (quadrant & 1) ? s : c;
    sn[i] = (quadrant & 2) ? -sv : sv;
    cs[i] = ((quadrant + 1) & 2) ? -cv : cv;
  }
}

// ---- Dispatchers ------------------------------------------------------------

void Apply1QRange(SimdLevel level, double* re, double* im, uint64_t pb,
                  uint64_t pe, uint64_t stride, const double* m) {
  if (level == SimdLevel::kAvx2) {
    Apply1QRangeAvx2(re, im, pb, pe, stride, m);
  } else {
    Apply1QRangeScalar(re, im, pb, pe, stride, m);
  }
}

void Controlled1QRange(SimdLevel level, double* re, double* im, uint64_t pb,
                       uint64_t pe, uint64_t stride, uint64_t cmask,
                       const double* m) {
  if (level == SimdLevel::kAvx2) {
    Controlled1QRangeAvx2(re, im, pb, pe, stride, cmask, m);
  } else {
    Controlled1QRangeScalar(re, im, pb, pe, stride, cmask, m);
  }
}

void Diag1QRange(SimdLevel level, double* re, double* im, uint64_t b,
                 uint64_t e, uint64_t mask, const double* d) {
  if (level == SimdLevel::kAvx2) {
    Diag1QRangeAvx2(re, im, b, e, mask, d);
  } else {
    Diag1QRangeScalar(re, im, b, e, mask, d);
  }
}

void Diag2QRange(SimdLevel level, double* re, double* im, uint64_t b,
                 uint64_t e, uint64_t amask, uint64_t bmask, const double* d) {
  if (level == SimdLevel::kAvx2) {
    Diag2QRangeAvx2(re, im, b, e, amask, bmask, d);
  } else {
    Diag2QRangeScalar(re, im, b, e, amask, bmask, d);
  }
}

void Apply2QRange(SimdLevel level, double* re, double* im, uint64_t gb,
                  uint64_t ge, uint64_t amask, uint64_t bmask, uint64_t lo_keep,
                  uint64_t mid_keep, const double (*mr)[4],
                  const double (*mi)[4]) {
  if (level == SimdLevel::kAvx2) {
    Apply2QRangeAvx2(re, im, gb, ge, amask, bmask, lo_keep, mid_keep, mr, mi);
  } else {
    Apply2QRangeScalar(re, im, gb, ge, amask, bmask, lo_keep, mid_keep, mr, mi);
  }
}

void NormsRange(SimdLevel level, const double* re, const double* im, uint64_t b,
                uint64_t e, double* out) {
  if (level == SimdLevel::kAvx2) {
    NormsRangeAvx2(re, im, b, e, out);
  } else {
    NormsRangeScalar(re, im, b, e, out);
  }
}

double NormSqRange(SimdLevel level, const double* re, const double* im,
                   uint64_t b, uint64_t e) {
  if (level == SimdLevel::kAvx2) return NormSqRangeAvx2(re, im, b, e);
  return NormSqRangeScalar(re, im, b, e);
}

double MaskedNormSqRange(SimdLevel level, const double* re, const double* im,
                         uint64_t b, uint64_t e, uint64_t mask) {
  if (level == SimdLevel::kAvx2) {
    return MaskedNormSqRangeAvx2(re, im, b, e, mask);
  }
  return MaskedNormSqRangeScalar(re, im, b, e, mask);
}

double CollapseRange(SimdLevel level, double* re, double* im, uint64_t b,
                     uint64_t e, uint64_t mask, uint64_t keep) {
  if (level == SimdLevel::kAvx2) {
    return CollapseRangeAvx2(re, im, b, e, mask, keep);
  }
  return CollapseRangeScalar(re, im, b, e, mask, keep);
}

void DivRange(SimdLevel level, double* re, double* im, uint64_t b, uint64_t e,
              double divisor) {
  if (level == SimdLevel::kAvx2) {
    DivRangeAvx2(re, im, b, e, divisor);
  } else {
    DivRangeScalar(re, im, b, e, divisor);
  }
}

void ProductStateRange(SimdLevel level, double* re, double* im, uint64_t b,
                       uint64_t e, const double* high_re,
                       const double* high_im, const double* low_re,
                       const double* low_im, int low_bits) {
  if (level == SimdLevel::kAvx2) {
    ProductStateRangeAvx2(re, im, b, e, high_re, high_im, low_re, low_im,
                          low_bits);
  } else {
    ProductStateRangeScalar(re, im, b, e, high_re, high_im, low_re, low_im,
                            low_bits);
  }
}

void WalshHadamard(SimdLevel level, double* table, int bits) {
  if (level == SimdLevel::kAvx2) {
    WalshHadamardAvx2(table, bits);
  } else {
    WalshHadamardScalar(table, bits);
  }
}

void SinCosRange(SimdLevel level, const double* x, double* sn, double* cs,
                 uint64_t count) {
  if (level == SimdLevel::kAvx2) {
    SinCosRangeAvx2(x, sn, cs, count);
  } else {
    SinCosRangeScalar(x, sn, cs, count);
  }
}

}  // namespace simd
}  // namespace qdb
