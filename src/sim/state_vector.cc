#include "sim/state_vector.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "linalg/vector_ops.h"
#include "sim/kernels.h"
#include "sim/simd.h"

namespace qdb {

namespace {

/// Runs an element-wise kernel body over [0, range): split across the
/// shared pool when the state holds at least kParallelAmplitudeThreshold
/// amplitudes, serial otherwise. Bodies write disjoint indices, so the
/// split never changes results.
template <typename Body>
void ForKernelRange(uint64_t dim, uint64_t range, Body&& body) {
  if (dim >= kParallelAmplitudeThreshold) {
    ThreadPool::Global().ParallelFor(
        0, range, [&body](uint64_t b, uint64_t e) { body(b, e); });
  } else {
    body(0, range);
  }
}

/// Sums `fn(begin, end)` over [0, range). Above the threshold the pool's
/// fixed chunking applies even at QDB_THREADS=1, so the floating-point
/// combine order — and hence the result — is independent of thread count.
template <typename T, typename Fn>
T SumKernelRange(uint64_t dim, uint64_t range, Fn&& fn) {
  if (dim >= kParallelAmplitudeThreshold) {
    return ParallelSum<T>(ThreadPool::Global(), 0, range, fn);
  }
  return fn(uint64_t{0}, range);
}

/// Unpacks a 2x2 complex matrix into the interleaved scalar layout the
/// range kernels take: {m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i}.
void Pack1Q(Complex m00, Complex m01, Complex m10, Complex m11, double* m) {
  m[0] = m00.real();
  m[1] = m00.imag();
  m[2] = m01.real();
  m[3] = m01.imag();
  m[4] = m10.real();
  m[5] = m10.imag();
  m[6] = m11.real();
  m[7] = m11.imag();
}

}  // namespace

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits) {
  QDB_CHECK_GT(num_qubits, 0);
  QDB_CHECK_LE(num_qubits, 30);
  re_.assign(dim(), 0.0);
  im_.assign(dim(), 0.0);
  re_[0] = 1.0;
}

Result<StateVector> StateVector::FromAmplitudes(CVector amplitudes,
                                                double norm_tol) {
  const size_t n = amplitudes.size();
  // A single amplitude (n = 1) passes the power-of-two test but describes a
  // zero-qubit register; accepting it used to leave dim() = 2 over a
  // 1-element vector, so every later read walked off the end.
  if (n < 2 || (n & (n - 1)) != 0) {
    return Status::InvalidArgument(
        StrCat("amplitude vector size must be a power of two >= 2, got ", n));
  }
  double norm = Norm(amplitudes);
  if (std::abs(norm - 1.0) > norm_tol) {
    return Status::InvalidArgument(
        StrCat("amplitude vector norm must be 1, got ", norm));
  }
  int num_qubits = 0;
  while ((size_t{1} << num_qubits) < n) ++num_qubits;
  StateVector out(num_qubits);
  out.SetAmplitudes(amplitudes);
  return out;
}

StateVector StateVector::BasisState(int num_qubits, uint64_t index) {
  StateVector out(num_qubits);
  QDB_CHECK_LT(index, out.dim());
  out.re_[0] = 0.0;
  out.re_[index] = 1.0;
  return out;
}

Complex StateVector::amplitude(uint64_t index) const {
  QDB_CHECK_LT(index, dim());
  return Complex(re_[index], im_[index]);
}

void StateVector::set_amplitude(uint64_t index, Complex value) {
  QDB_CHECK_LT(index, dim());
  re_[index] = value.real();
  im_[index] = value.imag();
}

CVector StateVector::ToAmplitudes() const {
  CVector out(dim());
  for (uint64_t i = 0; i < dim(); ++i) out[i] = Complex(re_[i], im_[i]);
  return out;
}

void StateVector::SetAmplitudes(const CVector& amplitudes) {
  QDB_CHECK_EQ(amplitudes.size(), dim());
  for (uint64_t i = 0; i < dim(); ++i) {
    re_[i] = amplitudes[i].real();
    im_[i] = amplitudes[i].imag();
  }
}

double StateVector::Probability(uint64_t index) const {
  QDB_CHECK_LT(index, dim());
  return re_[index] * re_[index] + im_[index] * im_[index];
}

DVector StateVector::Probabilities() const {
  DVector out(dim());
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  ForKernelRange(dim(), dim(), [&](uint64_t b, uint64_t e) {
    simd::NormsRange(lvl, re_.data(), im_.data(), b, e, out.data());
  });
  return out;
}

double StateVector::ProbabilityOfOne(int qubit) const {
  QDB_CHECK_GE(qubit, 0);
  QDB_CHECK_LT(qubit, num_qubits_);
  const uint64_t mask = uint64_t{1} << BitPos(qubit);
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  return SumKernelRange<double>(dim(), dim(), [&](uint64_t b, uint64_t e) {
    return simd::MaskedNormSqRange(lvl, re_.data(), im_.data(), b, e, mask);
  });
}

double StateVector::NormValue() const {
  // Serial single-accumulator sum in index order: matches Norm(CVector)
  // on the interleaved representation bit for bit.
  double acc = 0.0;
  for (uint64_t i = 0; i < dim(); ++i) {
    acc += re_[i] * re_[i] + im_[i] * im_[i];
  }
  return std::sqrt(acc);
}

void StateVector::Renormalize() {
  double n = NormValue();
  QDB_CHECK_GT(n, 0.0) << "cannot renormalize the zero vector";
  // Per-component IEEE division is order-independent, so this pass can be
  // chunked and vectorized freely without changing results.
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  ForKernelRange(dim(), dim(), [&](uint64_t b, uint64_t e) {
    simd::DivRange(lvl, re_.data(), im_.data(), b, e, n);
  });
}

Complex StateVector::InnerProductWith(const StateVector& other) const {
  QDB_CHECK_EQ(num_qubits_, other.num_qubits_);
  // Same products and summation order as InnerProduct on interleaved
  // vectors: conj(a)*b = (ar*br + ai*bi, ar*bi - ai*br).
  double acc_r = 0.0, acc_i = 0.0;
  for (uint64_t i = 0; i < dim(); ++i) {
    acc_r += re_[i] * other.re_[i] + im_[i] * other.im_[i];
    acc_i += re_[i] * other.im_[i] - im_[i] * other.re_[i];
  }
  return Complex(acc_r, acc_i);
}

void StateVector::Apply1Q(int qubit, Complex m00, Complex m01, Complex m10,
                          Complex m11) {
  QDB_CHECK_GE(qubit, 0);
  QDB_CHECK_LT(qubit, num_qubits_);
  const uint64_t stride = uint64_t{1} << BitPos(qubit);
  double m[8];
  Pack1Q(m00, m01, m10, m11, m);
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  // Iterate pairs (i0, i0 | stride) where the qubit's bit is 0 in i0: pair
  // index p's low BitPos bits are the offset within a block, the rest the
  // block number, so i0 = (block << (BitPos+1)) | offset.
  ForKernelRange(dim(), dim() / 2, [&](uint64_t pb, uint64_t pe) {
    simd::Apply1QRange(lvl, re_.data(), im_.data(), pb, pe, stride, m);
  });
}

void StateVector::Apply1Q(int qubit, const Matrix& u) {
  QDB_CHECK_EQ(u.rows(), 2u);
  QDB_CHECK_EQ(u.cols(), 2u);
  Apply1Q(qubit, u(0, 0), u(0, 1), u(1, 0), u(1, 1));
}

void StateVector::ApplyDiagonal1Q(int qubit, Complex d0, Complex d1) {
  QDB_CHECK_GE(qubit, 0);
  QDB_CHECK_LT(qubit, num_qubits_);
  const uint64_t mask = uint64_t{1} << BitPos(qubit);
  const double d[4] = {d0.real(), d0.imag(), d1.real(), d1.imag()};
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  ForKernelRange(dim(), dim(), [&](uint64_t b, uint64_t e) {
    simd::Diag1QRange(lvl, re_.data(), im_.data(), b, e, mask, d);
  });
}

void StateVector::ApplyControlled1Q(int control, int target, Complex m00,
                                    Complex m01, Complex m10, Complex m11) {
  QDB_CHECK_NE(control, target);
  QDB_CHECK_GE(control, 0);
  QDB_CHECK_LT(control, num_qubits_);
  QDB_CHECK_GE(target, 0);
  QDB_CHECK_LT(target, num_qubits_);
  const uint64_t cmask = uint64_t{1} << BitPos(control);
  const uint64_t stride = uint64_t{1} << BitPos(target);
  double m[8];
  Pack1Q(m00, m01, m10, m11, m);
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  // Same pair-index walk as Apply1Q, acting only where the control is set.
  ForKernelRange(dim(), dim() / 2, [&](uint64_t pb, uint64_t pe) {
    simd::Controlled1QRange(lvl, re_.data(), im_.data(), pb, pe, stride, cmask,
                            m);
  });
}

void StateVector::Apply2Q(int a, int b, const Matrix& u) {
  QDB_CHECK_EQ(u.rows(), 4u);
  QDB_CHECK_EQ(u.cols(), 4u);
  QDB_CHECK_NE(a, b);
  const uint64_t amask = uint64_t{1} << BitPos(a);
  const uint64_t bmask = uint64_t{1} << BitPos(b);
  // Hoist the 16 entries out of the sweep: Matrix::operator() bounds-checks
  // every access, which would otherwise dominate this (hot, fusion-emitted)
  // kernel's inner loop. Real/imag planes so the row updates are plain
  // double arithmetic — std::complex operator* carries an Annex-G
  // NaN-recovery branch per product that blocks vectorization.
  double mr[4][4], mi[4][4];
  for (int r = 0; r < 4; ++r) {
    for (int col = 0; col < 4; ++col) {
      const Complex entry = u(r, col);
      mr[r][col] = entry.real();
      mi[r][col] = entry.imag();
    }
  }
  // Walk the dim/4 group representatives directly (both operand bits
  // clear): group index g expands to its representative by depositing a
  // zero bit at each operand position, so no loop iteration is wasted on a
  // skipped index. Groups are disjoint, so chunks over g never touch
  // another chunk's amplitudes and results match the serial walk exactly.
  const uint64_t lo_pos = BitPos(a) < BitPos(b) ? BitPos(a) : BitPos(b);
  const uint64_t hi_pos = BitPos(a) < BitPos(b) ? BitPos(b) : BitPos(a);
  const uint64_t lo_keep = (uint64_t{1} << lo_pos) - 1;
  const uint64_t mid_keep = ((uint64_t{1} << (hi_pos - 1)) - 1) & ~lo_keep;
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  ForKernelRange(dim(), dim() / 4, [&](uint64_t gb, uint64_t ge) {
    simd::Apply2QRange(lvl, re_.data(), im_.data(), gb, ge, amask, bmask,
                       lo_keep, mid_keep, mr, mi);
  });
}

void StateVector::ApplyDiagonal2Q(int a, int b, Complex d0, Complex d1,
                                  Complex d2, Complex d3) {
  QDB_CHECK_NE(a, b);
  const uint64_t amask = uint64_t{1} << BitPos(a);
  const uint64_t bmask = uint64_t{1} << BitPos(b);
  const double d[8] = {d0.real(), d0.imag(), d1.real(), d1.imag(),
                       d2.real(), d2.imag(), d3.real(), d3.imag()};
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  ForKernelRange(dim(), dim(), [&](uint64_t lo, uint64_t hi) {
    simd::Diag2QRange(lvl, re_.data(), im_.data(), lo, hi, amask, bmask, d);
  });
}

void StateVector::ApplySwap(int a, int b) {
  QDB_CHECK_NE(a, b);
  const uint64_t amask = uint64_t{1} << BitPos(a);
  const uint64_t bmask = uint64_t{1} << BitPos(b);
  for (uint64_t i = 0; i < dim(); ++i) {
    const bool abit = i & amask;
    const bool bbit = i & bmask;
    if (abit && !bbit) {
      const uint64_t j = (i & ~amask) | bmask;
      std::swap(re_[i], re_[j]);
      std::swap(im_[i], im_[j]);
    }
  }
}

void StateVector::ApplyWalshPhase(const std::vector<WalshTerm>& phase) {
  // Pool chunks are whole Walsh blocks, and each block's phases depend only
  // on its own indices, so the split never changes results.
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  ForKernelRange(dim(), dim(), [&](uint64_t b, uint64_t e) {
    ApplyWalshPhaseRange(lvl, phase, re_.data(), im_.data(), b, e);
  });
}

void StateVector::ApplyKQ(const std::vector<int>& qubits, const Matrix& u) {
  const int k = static_cast<int>(qubits.size());
  QDB_CHECK_GT(k, 0);
  QDB_CHECK_EQ(u.rows(), size_t{1} << k);
  QDB_CHECK_EQ(u.cols(), size_t{1} << k);
  std::vector<uint64_t> masks(k);
  uint64_t all_mask = 0;
  for (int j = 0; j < k; ++j) {
    masks[j] = uint64_t{1} << BitPos(qubits[j]);
    all_mask |= masks[j];
  }
  const uint64_t group = uint64_t{1} << k;
  std::vector<uint64_t> indices(group);
  std::vector<Complex> old_vals(group);
  for (uint64_t i = 0; i < dim(); ++i) {
    if (i & all_mask) continue;  // i is the group representative (all clear).
    for (uint64_t g = 0; g < group; ++g) {
      uint64_t idx = i;
      for (int j = 0; j < k; ++j) {
        if (g & (uint64_t{1} << (k - 1 - j))) idx |= masks[j];
      }
      indices[g] = idx;
      old_vals[g] = Complex(re_[idx], im_[idx]);
    }
    for (uint64_t r = 0; r < group; ++r) {
      Complex acc(0.0, 0.0);
      for (uint64_t c = 0; c < group; ++c) acc += u(r, c) * old_vals[c];
      re_[indices[r]] = acc.real();
      im_[indices[r]] = acc.imag();
    }
  }
}

void StateVector::ApplyMCX(const std::vector<int>& controls, int target) {
  uint64_t cmask = 0;
  for (int c : controls) {
    QDB_CHECK_NE(c, target);
    cmask |= uint64_t{1} << BitPos(c);
  }
  const uint64_t tmask = uint64_t{1} << BitPos(target);
  for (uint64_t i = 0; i < dim(); ++i) {
    if ((i & cmask) == cmask && !(i & tmask)) {
      std::swap(re_[i], re_[i | tmask]);
      std::swap(im_[i], im_[i | tmask]);
    }
  }
}

void StateVector::ApplyMCZ(const std::vector<int>& controls, int target) {
  uint64_t mask = uint64_t{1} << BitPos(target);
  for (int c : controls) {
    QDB_CHECK_NE(c, target);
    mask |= uint64_t{1} << BitPos(c);
  }
  for (uint64_t i = 0; i < dim(); ++i) {
    if ((i & mask) == mask) {
      re_[i] = -re_[i];
      im_[i] = -im_[i];
    }
  }
}

DVector StateVector::CumulativeProbabilities() const {
  DVector cdf(dim());
  double acc = 0.0;
  for (uint64_t i = 0; i < dim(); ++i) {
    acc += re_[i] * re_[i] + im_[i] * im_[i];
    cdf[i] = acc;
  }
  return cdf;
}

uint64_t StateVector::SampleOnce(Rng& rng) const {
  // Same CDF + binary-search path as SampleCounts, and the same draw
  // semantics the old linear scan had: the scan returned the first index
  // whose running prefix sum exceeded target, which is exactly
  // upper_bound on the prefix-sum array. Scaling the draw by the total
  // mass keeps sub-normalized states sampling in distribution with
  // SampleCounts instead of over-weighting the last basis state.
  const DVector cdf = CumulativeProbabilities();
  const double target = rng.Uniform() * cdf.back();
  auto it = std::upper_bound(cdf.begin(), cdf.end(), target);
  uint64_t idx = static_cast<uint64_t>(it - cdf.begin());
  if (idx >= dim()) idx = dim() - 1;  // Floating-point slack.
  return idx;
}

std::map<uint64_t, int> StateVector::SampleCounts(Rng& rng, int shots) const {
  QDB_CHECK_GE(shots, 0);
  std::map<uint64_t, int> counts;
  // CDF + binary search: O(2^n + shots log 2^n).
  const DVector cdf = CumulativeProbabilities();
  for (int s = 0; s < shots; ++s) {
    double target = rng.Uniform() * cdf.back();
    auto it = std::upper_bound(cdf.begin(), cdf.end(), target);
    uint64_t idx = static_cast<uint64_t>(it - cdf.begin());
    if (idx >= dim()) idx = dim() - 1;
    ++counts[idx];
  }
  return counts;
}

int StateVector::MeasureQubit(int qubit, Rng& rng) {
  const double p1 = ProbabilityOfOne(qubit);
  const int outcome = rng.Bernoulli(p1) ? 1 : 0;
  const uint64_t mask = uint64_t{1} << BitPos(qubit);
  const uint64_t keep = (outcome == 1) ? mask : uint64_t{0};
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  // Fused collapse: one pass zeroes the rejected branch while accumulating
  // the kept branch's probability mass (deterministic chunking above the
  // parallel threshold), then one renormalizing division pass — instead of
  // the old serial zeroing walk plus a full Renormalize re-scan.
  const double kept =
      SumKernelRange<double>(dim(), dim(), [&](uint64_t b, uint64_t e) {
        return simd::CollapseRange(lvl, re_.data(), im_.data(), b, e, mask,
                                   keep);
      });
  QDB_CHECK_GT(kept, 0.0) << "measurement collapsed to a zero-mass branch";
  const double n = std::sqrt(kept);
  ForKernelRange(dim(), dim(), [&](uint64_t b, uint64_t e) {
    simd::DivRange(lvl, re_.data(), im_.data(), b, e, n);
  });
  return outcome;
}

uint64_t StateVector::MeasureAll(Rng& rng) {
  const uint64_t outcome = SampleOnce(rng);
  std::fill(re_.begin(), re_.end(), 0.0);
  std::fill(im_.begin(), im_.end(), 0.0);
  re_[outcome] = 1.0;
  return outcome;
}

std::string StateVector::BitString(uint64_t index) const {
  std::string out(num_qubits_, '0');
  for (int q = 0; q < num_qubits_; ++q) {
    if (index & (uint64_t{1} << BitPos(q))) out[q] = '1';
  }
  return out;
}

}  // namespace qdb
