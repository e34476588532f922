#include "sim/walsh.h"

#include <algorithm>
#include <cmath>

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
void EvaluateBlock(const std::vector<WalshTerm>& terms, uint64_t base,
                   int bits, double* table) {
  const uint64_t size = uint64_t{1} << bits;
  std::fill(table, table + size, 0.0);
  // With fewer terms than table bits, summing each term over the table
  // directly is cheaper than the transform (one Z string, say).
  const bool direct = terms.size() < static_cast<size_t>(bits);
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
  if (!direct) FastWalshHadamard(table, bits);
}

}  // namespace

void FastWalshHadamard(double* table, int bits) {
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

void ApplyWalshPhaseRange(const std::vector<WalshTerm>& phase, double* re,
                          double* im, uint64_t begin, uint64_t end) {
  const int bits = TableBits(phase);
  const uint64_t period = uint64_t{1} << bits;
  double phi[kBlock], cs[kBlock], sn[kBlock];
  for (uint64_t base = begin; base < end; base += kBlock) {
    EvaluateBlock(phase, base, bits, phi);
    for (uint64_t l = 0; l < period; ++l) {
      cs[l] = std::cos(phi[l]);
      sn[l] = std::sin(phi[l]);
    }
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

double WalshCorrelationRange(const std::vector<WalshTerm>& w_re,
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
    EvaluateBlock(w_re, base, bits, wr);
    if (!w_im.empty()) EvaluateBlock(w_im, base, bits, wi);
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
