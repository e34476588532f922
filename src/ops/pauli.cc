#include "ops/pauli.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/strings.h"
#include "sim/walsh.h"

namespace qdb {

Matrix PauliMatrix(PauliOp op) {
  switch (op) {
    case PauliOp::kI:
      return Matrix::Identity(2);
    case PauliOp::kX:
      return Matrix{{{0, 0}, {1, 0}}, {{1, 0}, {0, 0}}};
    case PauliOp::kY:
      return Matrix{{{0, 0}, {0, -1}}, {{0, 1}, {0, 0}}};
    case PauliOp::kZ:
      return Matrix{{{1, 0}, {0, 0}}, {{0, 0}, {-1, 0}}};
  }
  QDB_CHECK(false) << "unreachable";
  return Matrix();
}

PauliString::PauliString(int num_qubits)
    : ops_(static_cast<size_t>(num_qubits), PauliOp::kI) {
  QDB_CHECK_GT(num_qubits, 0);
}

Result<PauliString> PauliString::Parse(const std::string& label) {
  if (label.empty()) {
    return Status::InvalidArgument("empty Pauli label");
  }
  PauliString out(static_cast<int>(label.size()));
  for (size_t i = 0; i < label.size(); ++i) {
    switch (label[i]) {
      case 'I': out.ops_[i] = PauliOp::kI; break;
      case 'X': out.ops_[i] = PauliOp::kX; break;
      case 'Y': out.ops_[i] = PauliOp::kY; break;
      case 'Z': out.ops_[i] = PauliOp::kZ; break;
      default:
        return Status::InvalidArgument(
            StrCat("invalid Pauli character '", label[i], "' in \"", label,
                   "\""));
    }
  }
  return out;
}

PauliString PauliString::Single(int num_qubits, int qubit, PauliOp op) {
  PauliString out(num_qubits);
  out.set_op(qubit, op);
  return out;
}

PauliOp PauliString::op(int qubit) const {
  QDB_CHECK_GE(qubit, 0);
  QDB_CHECK_LT(static_cast<size_t>(qubit), ops_.size());
  return ops_[qubit];
}

void PauliString::set_op(int qubit, PauliOp op) {
  QDB_CHECK_GE(qubit, 0);
  QDB_CHECK_LT(static_cast<size_t>(qubit), ops_.size());
  ops_[qubit] = op;
}

int PauliString::Weight() const {
  int w = 0;
  for (auto op : ops_) {
    if (op != PauliOp::kI) ++w;
  }
  return w;
}

bool PauliString::IsDiagonal() const {
  for (auto op : ops_) {
    if (op == PauliOp::kX || op == PauliOp::kY) return false;
  }
  return true;
}

std::string PauliString::ToString() const {
  static const char kNames[] = {'I', 'X', 'Y', 'Z'};
  std::string out;
  out.reserve(ops_.size());
  for (auto op : ops_) out.push_back(kNames[static_cast<int>(op)]);
  return out;
}

Matrix PauliString::ToMatrix() const {
  Matrix out = PauliMatrix(ops_[0]);
  for (size_t q = 1; q < ops_.size(); ++q) out = out.Kron(PauliMatrix(ops_[q]));
  return out;
}

PauliSum::PauliSum(int num_qubits) : num_qubits_(num_qubits) {
  QDB_CHECK_GT(num_qubits, 0);
}

PauliSum& PauliSum::Add(double coefficient, const PauliString& pauli) {
  QDB_CHECK_EQ(pauli.num_qubits(), num_qubits_);
  terms_.push_back(PauliTerm{coefficient, pauli});
  return *this;
}

PauliSum& PauliSum::Add(double coefficient, const std::string& label) {
  auto parsed = PauliString::Parse(label);
  QDB_CHECK(parsed.ok()) << parsed.status().ToString();
  return Add(coefficient, parsed.value());
}

PauliSum PauliSum::operator+(const PauliSum& other) const {
  QDB_CHECK_EQ(num_qubits_, other.num_qubits_);
  PauliSum out = *this;
  for (const auto& t : other.terms_) out.terms_.push_back(t);
  return out;
}

PauliSum PauliSum::operator*(double scale) const {
  PauliSum out = *this;
  for (auto& t : out.terms_) t.coefficient *= scale;
  return out;
}

PauliSum PauliSum::Simplified(double tol) const {
  std::map<PauliString, double> acc;
  for (const auto& t : terms_) acc[t.pauli] += t.coefficient;
  PauliSum out(num_qubits_);
  for (const auto& [pauli, coeff] : acc) {
    if (std::abs(coeff) > tol) out.Add(coeff, pauli);
  }
  return out;
}

bool PauliSum::IsDiagonal() const {
  return std::all_of(terms_.begin(), terms_.end(),
                     [](const PauliTerm& t) { return t.pauli.IsDiagonal(); });
}

Matrix PauliSum::ToMatrix() const {
  const size_t dim = size_t{1} << num_qubits_;
  Matrix out(dim, dim);
  for (const auto& t : terms_) {
    Matrix m = t.pauli.ToMatrix();
    m *= Complex(t.coefficient, 0.0);
    out += m;
  }
  return out;
}

Result<DVector> PauliSum::DiagonalValues() const {
  if (!IsDiagonal()) {
    return Status::FailedPrecondition(
        "DiagonalValues requires an I/Z-only PauliSum");
  }
  // Each I/Z string is the Walsh term c·(−1)^{|i ∧ zmask|}: scatter the
  // coefficients onto their Z-masks, then one transform yields all 2^n
  // diagonal entries. Qubit 0 = most significant index bit.
  DVector diag(size_t{1} << num_qubits_, 0.0);
  for (const auto& t : terms_) {
    uint64_t zmask = 0;
    for (int q = 0; q < num_qubits_; ++q) {
      if (t.pauli.op(q) == PauliOp::kZ) {
        zmask |= uint64_t{1} << (num_qubits_ - 1 - q);
      }
    }
    diag[zmask] += t.coefficient;
  }
  FastWalshHadamard(diag.data(), num_qubits_);
  return diag;
}

std::string PauliSum::ToString() const {
  if (terms_.empty()) return "0";
  std::ostringstream os;
  for (size_t i = 0; i < terms_.size(); ++i) {
    if (i > 0) os << " + ";
    os << ToStringPrecise(terms_[i].coefficient, 6) << "*"
       << terms_[i].pauli.ToString();
  }
  return os.str();
}

}  // namespace qdb
