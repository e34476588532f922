#include "linalg/vector_ops.h"

#include <cmath>

#include "common/check.h"

namespace qdb {

Complex InnerProduct(const CVector& a, const CVector& b) {
  QDB_CHECK_EQ(a.size(), b.size());
  // conj(a)·b spelled out in real arithmetic, summed in index order: the
  // same bits as accumulating std::conj(a[i]) * b[i] for finite inputs,
  // without the complex multiply's NaN-recovery branch per term.
  double re = 0.0;
  double im = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double ar = a[i].real(), ai = a[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    re += ar * br + ai * bi;
    im += ar * bi - ai * br;
  }
  return Complex(re, im);
}

double Norm(const CVector& v) {
  double acc = 0.0;
  for (const auto& x : v) acc += std::norm(x);
  return std::sqrt(acc);
}

double Norm(const DVector& v) {
  double acc = 0.0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

void Normalize(CVector& v) {
  double n = Norm(v);
  if (n == 0.0) return;
  for (auto& x : v) x /= n;
}

CVector Kron(const CVector& a, const CVector& b) {
  CVector out(a.size() * b.size());
  size_t idx = 0;
  for (const auto& x : a)
    for (const auto& y : b) out[idx++] = x * y;
  return out;
}

double Fidelity(const CVector& a, const CVector& b) {
  return std::norm(InnerProduct(a, b));
}

double Dot(const DVector& a, const DVector& b) {
  QDB_CHECK_EQ(a.size(), b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

DVector Add(const DVector& a, const DVector& b) {
  QDB_CHECK_EQ(a.size(), b.size());
  DVector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

DVector Sub(const DVector& a, const DVector& b) {
  QDB_CHECK_EQ(a.size(), b.size());
  DVector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

DVector Scale(double s, const DVector& v) {
  DVector out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = s * v[i];
  return out;
}

double MaxAbsDiff(const DVector& a, const DVector& b) {
  QDB_CHECK_EQ(a.size(), b.size());
  double worst = 0.0;
  for (size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

}  // namespace qdb
