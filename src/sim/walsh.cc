#include "sim/walsh.h"

#include <algorithm>

#include "sim/kernels.h"

namespace qdb {

namespace {

constexpr uint64_t kBlock = uint64_t{1} << kWalshBlockBits;

/// Bit length of the union of the masks below the block boundary. A block's
/// table needs only that many index bits: f repeats with that period inside
/// a block.
int TableBits(const std::vector<WalshTerm>& a,
              const std::vector<WalshTerm>& b = {}) {
  uint64_t low = 0;
  for (const WalshTerm& t : a) low |= t.mask;
  for (const WalshTerm& t : b) low |= t.mask;
  low &= kBlock - 1;
  return low == 0 ? 0 : 64 - __builtin_clzll(low);
}

/// Fills table[0, 2^bits) with f(base + l), f = Σ terms. The bits of `base`
/// are the block's high index bits; each term's sign under them is folded in
/// before the transform.
void EvaluateBlock(simd::SimdLevel level, const std::vector<WalshTerm>& terms,
                   uint64_t base, int bits, double* table) {
  const uint64_t size = uint64_t{1} << bits;
  std::fill(table, table + size, 0.0);
  // Summing a term over the table costs about four vectorized transform
  // stages, so with fewer than bits / 4 terms (one Z string, say) the direct
  // sums are cheaper. The choice depends only on the terms, never on the
  // dispatch level, so every level computes the same sums.
  const bool direct = 4 * terms.size() < static_cast<size_t>(bits);
  for (const WalshTerm& t : terms) {
    const bool flip = __builtin_popcountll(base & t.mask) & 1;
    const double c = flip ? -t.coefficient : t.coefficient;
    const uint64_t low = t.mask & (size - 1);
    if (!direct) {
      table[low] += c;
      continue;
    }
    for (uint64_t l = 0; l < size; ++l) {
      table[l] += (__builtin_popcountll(l & low) & 1) ? -c : c;
    }
  }
  if (!direct) simd::WalshHadamard(level, table, bits);
}

}  // namespace

void FastWalshHadamard(double* table, int bits) {
  simd::WalshHadamard(simd::ActiveSimdLevel(), table, bits);
}

void ApplyWalshPhaseRange(simd::SimdLevel level,
                          const std::vector<WalshTerm>& phase, double* re,
                          double* im, uint64_t begin, uint64_t end) {
  const int bits = TableBits(phase);
  const uint64_t period = uint64_t{1} << bits;
  double phi[kBlock], cs[kBlock], sn[kBlock];
  for (uint64_t base = begin; base < end; base += kBlock) {
    EvaluateBlock(level, phase, base, bits, phi);
    simd::SinCosRange(level, phi, sn, cs, period);
    const uint64_t stop = std::min(end, base + kBlock);
    for (uint64_t i = base; i < stop; ++i) {
      const uint64_t l = (i - base) & (period - 1);
      const double r = re[i];
      const double m = im[i];
      re[i] = r * cs[l] - m * sn[l];
      im[i] = r * sn[l] + m * cs[l];
    }
  }
}

double WalshCorrelationRange(simd::SimdLevel level,
                             const std::vector<WalshTerm>& w_re,
                             const std::vector<WalshTerm>& w_im,
                             uint64_t xmask, const double* re,
                             const double* im, uint64_t begin, uint64_t end) {
  const int bits = TableBits(w_re, w_im);
  const uint64_t period = uint64_t{1} << bits;
  double wr[kBlock], wi[kBlock];
  // An empty imaginary part is a zero table for every block.
  if (w_im.empty()) std::fill(wi, wi + period, 0.0);
  double acc = 0.0;
  for (uint64_t base = begin; base < end; base += kBlock) {
    EvaluateBlock(level, w_re, base, bits, wr);
    if (!w_im.empty()) EvaluateBlock(level, w_im, base, bits, wi);
    const uint64_t stop = std::min(end, base + kBlock);
    for (uint64_t i = base; i < stop; ++i) {
      const uint64_t l = (i - base) & (period - 1);
      const uint64_t j = i ^ xmask;
      // t = conj(a_j) · a_i; accumulate Re(t · W).
      const double tr = re[j] * re[i] + im[j] * im[i];
      const double ti = re[j] * im[i] - im[j] * re[i];
      acc += tr * wr[l] - ti * wi[l];
    }
  }
  return acc;
}

}  // namespace qdb
