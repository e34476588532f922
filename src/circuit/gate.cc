#include "circuit/gate.h"

#include <cmath>

#include "common/check.h"

namespace qdb {

double ParamExpr::Evaluate(const DVector& params) const {
  if (index < 0) return offset;
  QDB_CHECK_LT(static_cast<size_t>(index), params.size())
      << "parameter index out of range";
  return multiplier * params[index] + offset;
}

Gate Gate::WithNegatedParams() const {
  Gate g = *this;
  for (auto& p : g.params) {
    p.multiplier = -p.multiplier;
    p.offset = -p.offset;
  }
  return g;
}

const char* GateTypeName(GateType type) {
  switch (type) {
    case GateType::kI: return "id";
    case GateType::kX: return "x";
    case GateType::kY: return "y";
    case GateType::kZ: return "z";
    case GateType::kH: return "h";
    case GateType::kS: return "s";
    case GateType::kSdg: return "sdg";
    case GateType::kT: return "t";
    case GateType::kTdg: return "tdg";
    case GateType::kSX: return "sx";
    case GateType::kRX: return "rx";
    case GateType::kRY: return "ry";
    case GateType::kRZ: return "rz";
    case GateType::kPhase: return "p";
    case GateType::kU: return "u";
    case GateType::kCX: return "cx";
    case GateType::kCY: return "cy";
    case GateType::kCZ: return "cz";
    case GateType::kCH: return "ch";
    case GateType::kSwap: return "swap";
    case GateType::kCRX: return "crx";
    case GateType::kCRY: return "cry";
    case GateType::kCRZ: return "crz";
    case GateType::kCPhase: return "cp";
    case GateType::kRXX: return "rxx";
    case GateType::kRYY: return "ryy";
    case GateType::kRZZ: return "rzz";
    case GateType::kCCX: return "ccx";
    case GateType::kCSwap: return "cswap";
    case GateType::kMCX: return "mcx";
    case GateType::kMCZ: return "mcz";
  }
  return "?";
}

int GateArity(GateType type) {
  switch (type) {
    case GateType::kI:
    case GateType::kX:
    case GateType::kY:
    case GateType::kZ:
    case GateType::kH:
    case GateType::kS:
    case GateType::kSdg:
    case GateType::kT:
    case GateType::kTdg:
    case GateType::kSX:
    case GateType::kRX:
    case GateType::kRY:
    case GateType::kRZ:
    case GateType::kPhase:
    case GateType::kU:
      return 1;
    case GateType::kCX:
    case GateType::kCY:
    case GateType::kCZ:
    case GateType::kCH:
    case GateType::kSwap:
    case GateType::kCRX:
    case GateType::kCRY:
    case GateType::kCRZ:
    case GateType::kCPhase:
    case GateType::kRXX:
    case GateType::kRYY:
    case GateType::kRZZ:
      return 2;
    case GateType::kCCX:
    case GateType::kCSwap:
      return 3;
    case GateType::kMCX:
    case GateType::kMCZ:
      return 0;  // variadic
  }
  return 0;
}

int GateParamCount(GateType type) {
  switch (type) {
    case GateType::kRX:
    case GateType::kRY:
    case GateType::kRZ:
    case GateType::kPhase:
    case GateType::kCRX:
    case GateType::kCRY:
    case GateType::kCRZ:
    case GateType::kCPhase:
    case GateType::kRXX:
    case GateType::kRYY:
    case GateType::kRZZ:
      return 1;
    case GateType::kU:
      return 3;
    default:
      return 0;
  }
}

bool IsDiagonalGate(GateType type) {
  switch (type) {
    case GateType::kI:
    case GateType::kZ:
    case GateType::kS:
    case GateType::kSdg:
    case GateType::kT:
    case GateType::kTdg:
    case GateType::kRZ:
    case GateType::kPhase:
    case GateType::kCZ:
    case GateType::kCRZ:
    case GateType::kCPhase:
    case GateType::kRZZ:
    case GateType::kMCZ:
      return true;
    default:
      return false;
  }
}

namespace {

Matrix ControlledMatrix(const Matrix& u) {
  QDB_CHECK_EQ(u.rows(), 2u);
  Matrix c = Matrix::Identity(4);
  // Convention: qubits[0] (control) is the most significant index bit, so
  // the controlled block sits at rows/cols {2, 3}.
  c(2, 2) = u(0, 0);
  c(2, 3) = u(0, 1);
  c(3, 2) = u(1, 0);
  c(3, 3) = u(1, 1);
  return c;
}

}  // namespace

std::array<Complex, 4> GateMatrix1Q(GateType type, const DVector& angles) {
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  QDB_CHECK_EQ(static_cast<int>(angles.size()), GateParamCount(type))
      << "wrong number of angles for gate " << GateTypeName(type);
  const Complex zero(0, 0);
  const Complex one(1, 0);
  switch (type) {
    case GateType::kI:
      return {one, zero, zero, one};
    case GateType::kX:
      return {zero, one, one, zero};
    case GateType::kY:
      return {zero, Complex(0, -1), Complex(0, 1), zero};
    case GateType::kZ:
      return {one, zero, zero, Complex(-1, 0)};
    case GateType::kH:
      return {Complex(inv_sqrt2, 0), Complex(inv_sqrt2, 0),
              Complex(inv_sqrt2, 0), Complex(-inv_sqrt2, 0)};
    case GateType::kS:
      return {one, zero, zero, Complex(0, 1)};
    case GateType::kSdg:
      return {one, zero, zero, Complex(0, -1)};
    case GateType::kT:
      return {one, zero, zero, Complex(inv_sqrt2, inv_sqrt2)};
    case GateType::kTdg:
      return {one, zero, zero, Complex(inv_sqrt2, -inv_sqrt2)};
    case GateType::kSX:
      // sqrt(X) = 1/2 [[1+i, 1-i], [1-i, 1+i]]
      return {Complex(0.5, 0.5), Complex(0.5, -0.5), Complex(0.5, -0.5),
              Complex(0.5, 0.5)};
    case GateType::kRX: {
      const double c = std::cos(angles[0] / 2), s = std::sin(angles[0] / 2);
      return {Complex(c, 0), Complex(0, -s), Complex(0, -s), Complex(c, 0)};
    }
    case GateType::kRY: {
      const double c = std::cos(angles[0] / 2), s = std::sin(angles[0] / 2);
      return {Complex(c, 0), Complex(-s, 0), Complex(s, 0), Complex(c, 0)};
    }
    case GateType::kRZ:
      return {std::exp(Complex(0, -angles[0] / 2)), zero, zero,
              std::exp(Complex(0, angles[0] / 2))};
    case GateType::kPhase:
      return {one, zero, zero, std::exp(Complex(0, angles[0]))};
    case GateType::kU: {
      const double theta = angles[0], phi = angles[1], lambda = angles[2];
      const double c = std::cos(theta / 2), s = std::sin(theta / 2);
      return {Complex(c, 0), -std::exp(Complex(0, lambda)) * s,
              std::exp(Complex(0, phi)) * s,
              std::exp(Complex(0, phi + lambda)) * c};
    }
    default:
      QDB_CHECK(false) << "GateMatrix1Q on the multi-qubit gate "
                       << GateTypeName(type);
      return {};
  }
}

Matrix GateMatrix(GateType type, const DVector& angles) {
  QDB_CHECK_EQ(static_cast<int>(angles.size()), GateParamCount(type))
      << "wrong number of angles for gate " << GateTypeName(type);
  if (GateArity(type) == 1) {
    const std::array<Complex, 4> u = GateMatrix1Q(type, angles);
    return Matrix{{u[0], u[1]}, {u[2], u[3]}};
  }
  switch (type) {
    case GateType::kCX:
      return ControlledMatrix(GateMatrix(GateType::kX, {}));
    case GateType::kCY:
      return ControlledMatrix(GateMatrix(GateType::kY, {}));
    case GateType::kCZ:
      return ControlledMatrix(GateMatrix(GateType::kZ, {}));
    case GateType::kCH:
      return ControlledMatrix(GateMatrix(GateType::kH, {}));
    case GateType::kSwap: {
      Matrix m(4, 4);
      m(0, 0) = m(3, 3) = Complex(1, 0);
      m(1, 2) = m(2, 1) = Complex(1, 0);
      return m;
    }
    case GateType::kCRX:
      return ControlledMatrix(GateMatrix(GateType::kRX, angles));
    case GateType::kCRY:
      return ControlledMatrix(GateMatrix(GateType::kRY, angles));
    case GateType::kCRZ:
      return ControlledMatrix(GateMatrix(GateType::kRZ, angles));
    case GateType::kCPhase:
      return ControlledMatrix(GateMatrix(GateType::kPhase, angles));
    case GateType::kRXX: {
      const double c = std::cos(angles[0] / 2), s = std::sin(angles[0] / 2);
      Matrix m(4, 4);
      for (int i = 0; i < 4; ++i) m(i, i) = Complex(c, 0);
      m(0, 3) = m(3, 0) = Complex(0, -s);
      m(1, 2) = m(2, 1) = Complex(0, -s);
      return m;
    }
    case GateType::kRYY: {
      const double c = std::cos(angles[0] / 2), s = std::sin(angles[0] / 2);
      Matrix m(4, 4);
      for (int i = 0; i < 4; ++i) m(i, i) = Complex(c, 0);
      m(0, 3) = m(3, 0) = Complex(0, s);
      m(1, 2) = m(2, 1) = Complex(0, -s);
      return m;
    }
    case GateType::kRZZ: {
      Complex em = std::exp(Complex(0, -angles[0] / 2));
      Complex ep = std::exp(Complex(0, angles[0] / 2));
      return Matrix::Diagonal({em, ep, ep, em});
    }
    case GateType::kCCX: {
      Matrix m = Matrix::Identity(8);
      m(6, 6) = m(7, 7) = Complex(0, 0);
      m(6, 7) = m(7, 6) = Complex(1, 0);
      return m;
    }
    case GateType::kCSwap: {
      Matrix m = Matrix::Identity(8);
      m(5, 5) = m(6, 6) = Complex(0, 0);
      m(5, 6) = m(6, 5) = Complex(1, 0);
      return m;
    }
    case GateType::kMCX:
    case GateType::kMCZ:
      QDB_CHECK(false) << "GateMatrix does not support variadic gates";
      break;
    default:
      break;  // Single-qubit gates returned above.
  }
  QDB_CHECK(false) << "unreachable";
  return Matrix();
}

GateType AdjointType(GateType type) {
  switch (type) {
    case GateType::kS:
      return GateType::kSdg;
    case GateType::kSdg:
      return GateType::kS;
    case GateType::kT:
      return GateType::kTdg;
    case GateType::kTdg:
      return GateType::kT;
    default:
      return type;
  }
}

}  // namespace qdb
