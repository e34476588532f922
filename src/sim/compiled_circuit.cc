#include "sim/compiled_circuit.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "obs/labels.h"
#include "obs/obs.h"
#include "sim/kernels.h"
#include "sim/simd.h"

namespace qdb {

namespace {

/// Compilation and replay counters. compile.*/fusion.* track the one-time
/// lowering work; the sim.gates.* family counts every applied op, replayed
/// or streamed, by kernel class.
struct CompiledCounters {
  obs::Counter* circuits = obs::GetCounter("compile.circuits");
  obs::Counter* source_gates = obs::GetCounter("compile.source_gates");
  obs::Counter* pruned_gates = obs::GetCounter("compile.pruned_gates");
  obs::Counter* ops_emitted = obs::GetCounter("compile.ops_emitted");
  obs::Counter* cache_hits = obs::GetCounter("compile.cache_hits");
  obs::Counter* cache_misses = obs::GetCounter("compile.cache_misses");
  obs::Counter* cache_evictions = obs::GetCounter("compile.cache_evictions");
  obs::Gauge* cache_size = obs::GetGauge("compile.cache_size");
  obs::Counter* replays = obs::GetCounter("compile.replays");
  obs::CounterFamily* replays_by_qubits =
      obs::MetricsRegistry::Global().GetCounterFamily("compile.replays",
                                                      {"qubits"});
  obs::Counter* fused_1q1q = obs::GetCounter("fusion.fused_1q1q");
  obs::Counter* fused_diag = obs::GetCounter("fusion.fused_diag");
  obs::Counter* fused_1q2q = obs::GetCounter("fusion.fused_1q2q");
  obs::Counter* fused_2q2q = obs::GetCounter("fusion.fused_2q2q");
  obs::Counter* ops_eliminated = obs::GetCounter("fusion.ops_eliminated");
  obs::Counter* diagonal_runs = obs::GetCounter("fusion.diagonal_runs");
  obs::Counter* diagonal_1q = obs::GetCounter("sim.gates.diagonal_1q");
  obs::Counter* generic_1q = obs::GetCounter("sim.gates.generic_1q");
  obs::Counter* controlled_1q = obs::GetCounter("sim.gates.controlled_1q");
  obs::Counter* diagonal_2q = obs::GetCounter("sim.gates.diagonal_2q");
  obs::Counter* generic_2q = obs::GetCounter("sim.gates.generic_2q");
  obs::Counter* swap = obs::GetCounter("sim.gates.swap");
  obs::Counter* multi_controlled = obs::GetCounter("sim.gates.multi_controlled");
  obs::Counter* generic_kq = obs::GetCounter("sim.gates.generic_kq");
  obs::Counter* diagonal_run = obs::GetCounter("sim.gates.diagonal_run");
  obs::Counter* product_state = obs::GetCounter("sim.gates.product_state");
  /// Amplitudes read-modify-written across all applied ops (the
  /// simulator's memory-traffic proxy: diagonal and generic kernels touch
  /// every amplitude; controlled / swap kernels touch half).
  obs::Counter* amplitude_touches = obs::GetCounter("sim.amplitude_touches");
};

CompiledCounters& Counters() {
  static CompiledCounters counters;
  return counters;
}

/// The single-qubit gate a controlled two-qubit form applies to its target
/// when the control is set; kI for every other type.
GateType ControlledBase(GateType type) {
  switch (type) {
    case GateType::kCY: return GateType::kY;
    case GateType::kCZ: return GateType::kZ;
    case GateType::kCH: return GateType::kH;
    case GateType::kCRX: return GateType::kRX;
    case GateType::kCRY: return GateType::kRY;
    case GateType::kCRZ: return GateType::kRZ;
    case GateType::kCPhase: return GateType::kPhase;
    default: return GateType::kI;
  }
}

/// Computes the kernel kind and payload for a bound arity-1/2 gate: diagonal
/// gates get the diagonal kernels, the controlled two-qubit forms their 2x2
/// block, everything else the dense 2x2 or 4x4. Single-qubit, controlled and
/// diagonal payloads come from GateMatrix1Q's entries, with no heap Matrix;
/// they equal GateMatrix's entries bit for bit.
void LowerBound(GateType type, const DVector& angles, CompiledOp* op) {
  const int arity = GateArity(type);
  if (arity == 1) {
    const std::array<Complex, 4> u = GateMatrix1Q(type, angles);
    if (IsDiagonalGate(type)) {
      op->kind = CompiledOpKind::k1QDiag;
      op->c = {u[0], u[3], Complex(0, 0), Complex(0, 0)};
    } else {
      op->kind = CompiledOpKind::k1QDense;
      op->c = u;
    }
    return;
  }
  QDB_CHECK_EQ(arity, 2);
  const GateType base = ControlledBase(type);
  if (type == GateType::kRZZ) {
    const std::array<Complex, 4> u = GateMatrix1Q(GateType::kRZ, angles);
    op->kind = CompiledOpKind::k2QDiag;
    op->c = {u[0], u[3], u[3], u[0]};
  } else if (base == GateType::kI) {
    op->kind = CompiledOpKind::k2QDense;
    op->m = GateMatrix(type, angles);
  } else if (IsDiagonalGate(type)) {
    const std::array<Complex, 4> u = GateMatrix1Q(base, angles);
    op->kind = CompiledOpKind::k2QDiag;
    op->c = {Complex(1, 0), Complex(1, 0), u[0], u[3]};
  } else {
    op->kind = CompiledOpKind::kControlled1Q;
    op->c = GateMatrix1Q(base, angles);
  }
}

/// Lowers `gate`, its angles bound to `angles`, into `op`: the one gate →
/// kernel ladder, shared by compilation (constant gates) and streaming
/// execution (StreamGate). Returns false for identities, which lower to
/// nothing.
bool LowerBoundGate(const Gate& gate, const DVector& angles, CompiledOp* op) {
  op->src = gate.type;
  switch (gate.type) {
    case GateType::kI:
      return false;
    case GateType::kMCX:
    case GateType::kMCZ:
      op->kind = gate.type == GateType::kMCX ? CompiledOpKind::kMCX
                                             : CompiledOpKind::kMCZ;
      op->qubits.assign(gate.qubits.begin(), gate.qubits.end() - 1);
      op->q0 = gate.qubits.back();
      return true;
    case GateType::kSwap:
      op->kind = CompiledOpKind::kSwap;
      op->q0 = gate.qubits[0];
      op->q1 = gate.qubits[1];
      return true;
    case GateType::kCX:
      op->kind = CompiledOpKind::kControlled1Q;
      op->q0 = gate.qubits[0];
      op->q1 = gate.qubits[1];
      op->c = {Complex(0, 0), Complex(1, 0), Complex(1, 0), Complex(0, 0)};
      return true;
    case GateType::kCZ:
      op->kind = CompiledOpKind::k2QDiag;
      op->q0 = gate.qubits[0];
      op->q1 = gate.qubits[1];
      op->c = {Complex(1, 0), Complex(1, 0), Complex(1, 0), Complex(-1, 0)};
      return true;
    default:
      break;
  }
  if (gate.qubits.size() > 2) {
    // CCX / CSwap: the generic k-qubit kernel.
    op->kind = CompiledOpKind::kKQDense;
    op->qubits = gate.qubits;
    op->m = GateMatrix(gate.type, angles);
    return true;
  }
  op->q0 = gate.qubits[0];
  if (gate.qubits.size() == 2) op->q1 = gate.qubits[1];
  LowerBound(gate.type, angles, op);
  return true;
}

/// Lowers one gate (constant payloads baked, parametric gates kept symbolic)
/// and appends the resulting op, or nothing for identities.
void LowerGate(const Gate& gate, std::vector<CompiledOp>& out) {
  bool parametric = false;
  for (const ParamExpr& p : gate.params) parametric |= !p.is_constant();
  CompiledOp op;
  if (parametric) {
    // Thin angle → payload evaluator: kind is resolved at replay time from
    // the same LowerBound ladder, with angles bound from the parameter
    // vector. Stash a provisional kind so the op is not mistaken for a Nop.
    op.src = gate.type;
    op.q0 = gate.qubits[0];
    if (gate.qubits.size() == 2) op.q1 = gate.qubits[1];
    op.exprs = gate.params;
    op.kind = GateArity(gate.type) == 1 ? CompiledOpKind::k1QDense
                                        : CompiledOpKind::k2QDense;
    out.push_back(std::move(op));
    return;
  }
  DVector angles;
  angles.reserve(gate.params.size());
  for (const ParamExpr& p : gate.params) angles.push_back(p.offset);
  if (LowerBoundGate(gate, angles, &op)) out.push_back(std::move(op));
}

// ---- Fusion helpers ---------------------------------------------------------

bool IsConst1Q(const CompiledOp& op) {
  return !op.parametric() && (op.kind == CompiledOpKind::k1QDense ||
                              op.kind == CompiledOpKind::k1QDiag);
}

bool IsConst2QClass(const CompiledOp& op) {
  if (op.parametric()) return false;
  switch (op.kind) {
    case CompiledOpKind::k2QDense:
    case CompiledOpKind::k2QDiag:
    case CompiledOpKind::kControlled1Q:
    case CompiledOpKind::kSwap:
      return true;
    default:
      return false;
  }
}

/// The op's full 4x4 matrix in its own (q0 = high bit, q1 = low bit) order.
Matrix To4x4(const CompiledOp& op) {
  switch (op.kind) {
    case CompiledOpKind::k2QDense:
      return op.m;
    case CompiledOpKind::k2QDiag:
      return Matrix::Diagonal({op.c[0], op.c[1], op.c[2], op.c[3]});
    case CompiledOpKind::kControlled1Q: {
      Matrix m = Matrix::Identity(4);
      m(2, 2) = op.c[0];
      m(2, 3) = op.c[1];
      m(3, 2) = op.c[2];
      m(3, 3) = op.c[3];
      return m;
    }
    case CompiledOpKind::kSwap: {
      Matrix m(4, 4);
      m(0, 0) = m(3, 3) = Complex(1, 0);
      m(1, 2) = m(2, 1) = Complex(1, 0);
      return m;
    }
    default:
      QDB_CHECK(false) << "To4x4 on a non-2Q op";
      return Matrix();
  }
}

/// Embeds a constant 1Q op into the 4x4 of a qubit pair: u ⊗ I when the op
/// acts on the pair's high qubit, I ⊗ u otherwise.
Matrix Expand1QTo4x4(const CompiledOp& op, bool on_high) {
  Matrix u(2, 2);
  if (op.kind == CompiledOpKind::k1QDiag) {
    u(0, 0) = op.c[0];
    u(1, 1) = op.c[1];
  } else {
    u(0, 0) = op.c[0];
    u(0, 1) = op.c[1];
    u(1, 0) = op.c[2];
    u(1, 1) = op.c[3];
  }
  Matrix out(4, 4);
  for (int r = 0; r < 4; ++r) {
    for (int col = 0; col < 4; ++col) {
      if (on_high) {
        if ((r & 1) == (col & 1)) out(r, col) = u(r >> 1, col >> 1);
      } else {
        if ((r >> 1) == (col >> 1)) out(r, col) = u(r & 1, col & 1);
      }
    }
  }
  return out;
}

/// Re-expresses a 4x4 written in (a, b) qubit order in (b, a) order:
/// M'(r, c) = M(sw(r), sw(c)) with sw exchanging the two index bits.
Matrix PermutePair(const Matrix& m) {
  static constexpr int kSw[4] = {0, 2, 1, 3};
  Matrix out(4, 4);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) out(r, c) = m(kSw[r], kSw[c]);
  }
  return out;
}

/// 2x2 product cur·prev over the array payloads (diagonal ops expand).
std::array<Complex, 4> Mul2x2(const CompiledOp& cur, const CompiledOp& prev) {
  auto dense = [](const CompiledOp& op) -> std::array<Complex, 4> {
    if (op.kind == CompiledOpKind::k1QDiag) {
      return {op.c[0], Complex(0, 0), Complex(0, 0), op.c[1]};
    }
    return op.c;
  };
  const std::array<Complex, 4> x = dense(cur);
  const std::array<Complex, 4> y = dense(prev);
  return {x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
          x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3]};
}

/// Folds a diagonal 1Q op into a diagonal 2Q payload in place.
void FoldDiag1QInto2QDiag(const CompiledOp& one_q, bool on_high,
                          std::array<Complex, 4>& quad) {
  const Complex d0 = one_q.c[0];
  const Complex d1 = one_q.c[1];
  if (on_high) {
    quad[0] *= d0;
    quad[1] *= d0;
    quad[2] *= d1;
    quad[3] *= d1;
  } else {
    quad[0] *= d0;
    quad[1] *= d1;
    quad[2] *= d0;
    quad[3] *= d1;
  }
}

/// The deterministic fusion pass: a single forward walk that greedily merges
/// each constant op into the latest op still touching its qubits. Parametric
/// ops, MCX/MCZ, and generic k-qubit ops act as barriers on their operands.
/// The pass is sequential and depends only on the op list, so fused programs
/// are identical regardless of thread count.
std::vector<CompiledOp> FusePass(std::vector<CompiledOp> in, int num_qubits,
                                 CompileStats& stats) {
  std::vector<CompiledOp> out;
  out.reserve(in.size());
  // prevs[i] = the previous last-toucher index of op i's operands at push
  // time, forming a per-qubit chain so absorbing an op can restore the
  // qubit's prior frontier.
  std::vector<std::array<int, 2>> prevs;
  prevs.reserve(in.size());
  std::vector<int> last(num_qubits, -1);

  auto push = [&](CompiledOp op, std::initializer_list<int> touched) {
    const int idx = static_cast<int>(out.size());
    std::array<int, 2> links = {-1, -1};
    int li = 0;
    for (int q : touched) {
      if (li < 2) links[li++] = last[q];
      last[q] = idx;
    }
    out.push_back(std::move(op));
    prevs.push_back(links);
  };

  for (CompiledOp& cur : in) {
    if (IsConst1Q(cur)) {
      const int q = cur.q0;
      const int p = last[q];
      if (p >= 0) {
        CompiledOp& prev = out[static_cast<size_t>(p)];
        if (IsConst1Q(prev)) {
          // Merge the pair into one 2x2 (diagonal iff both were diagonal).
          const bool both_diag = cur.kind == CompiledOpKind::k1QDiag &&
                                 prev.kind == CompiledOpKind::k1QDiag;
          const std::array<Complex, 4> merged = Mul2x2(cur, prev);
          if (both_diag) {
            prev.c = {merged[0], merged[3], Complex(0, 0), Complex(0, 0)};
          } else {
            prev.kind = CompiledOpKind::k1QDense;
            prev.c = merged;
          }
          prev.fused_gates += cur.fused_gates;
          ++stats.fused_1q1q;
          continue;
        }
        // A 1Q op commutes with everything after `prev` (nothing after it
        // touches q), so it may slide back and compose onto a 2Q-class op.
        if (IsConst2QClass(prev)) {
          const bool on_high = prev.q0 == q;
          if (cur.kind == CompiledOpKind::k1QDiag &&
              prev.kind == CompiledOpKind::k2QDiag) {
            FoldDiag1QInto2QDiag(cur, on_high, prev.c);
            ++stats.fused_diag;
          } else {
            prev.m = Expand1QTo4x4(cur, on_high) * To4x4(prev);
            prev.kind = CompiledOpKind::k2QDense;
            ++stats.fused_1q2q;
          }
          prev.fused_gates += cur.fused_gates;
          continue;
        }
      }
      push(std::move(cur), {q});
      continue;
    }

    if (IsConst2QClass(cur)) {
      const int a = cur.q0;
      const int b = cur.q1;
      // Absorb trailing constant 1Q ops on either operand: nothing between
      // them and `cur` touches their qubit, so they commute forward.
      bool dense = false;
      Matrix cur4;
      for (bool progressed = true; progressed;) {
        progressed = false;
        for (int side = 0; side < 2; ++side) {
          const int q = side == 0 ? a : b;
          const int pq = last[q];
          if (pq < 0 || !IsConst1Q(out[static_cast<size_t>(pq)])) continue;
          CompiledOp& one_q = out[static_cast<size_t>(pq)];
          const bool on_high = side == 0;
          if (!dense && cur.kind == CompiledOpKind::k2QDiag &&
              one_q.kind == CompiledOpKind::k1QDiag) {
            FoldDiag1QInto2QDiag(one_q, on_high, cur.c);
            ++stats.fused_diag;
          } else {
            if (!dense) {
              cur4 = To4x4(cur);
              dense = true;
            }
            cur4 = cur4 * Expand1QTo4x4(one_q, on_high);
            ++stats.fused_1q2q;
          }
          cur.fused_gates += one_q.fused_gates;
          last[q] = prevs[static_cast<size_t>(pq)][0];
          one_q.kind = CompiledOpKind::kNop;
          progressed = true;
        }
      }
      // Pair fusion: the previous op owns exactly this qubit pair and
      // nothing in between touches either qubit.
      const int p = last[a];
      if (p >= 0 && p == last[b]) {
        CompiledOp& prev = out[static_cast<size_t>(p)];
        const bool same_pair =
            IsConst2QClass(prev) && ((prev.q0 == a && prev.q1 == b) ||
                                     (prev.q0 == b && prev.q1 == a));
        if (same_pair) {
          const bool same_order = prev.q0 == a;
          if (!dense && cur.kind == CompiledOpKind::k2QDiag &&
              prev.kind == CompiledOpKind::k2QDiag) {
            static constexpr int kSw[4] = {0, 2, 1, 3};
            for (int i = 0; i < 4; ++i) {
              prev.c[i] *= cur.c[same_order ? i : kSw[i]];
            }
            ++stats.fused_diag;
          } else {
            Matrix cur_m = dense ? std::move(cur4) : To4x4(cur);
            if (!same_order) cur_m = PermutePair(cur_m);
            prev.m = cur_m * To4x4(prev);
            prev.kind = CompiledOpKind::k2QDense;
            ++stats.fused_2q2q;
          }
          prev.fused_gates += cur.fused_gates;
          continue;
        }
      }
      if (dense) {
        cur.kind = CompiledOpKind::k2QDense;
        cur.m = std::move(cur4);
      }
      push(std::move(cur), {a, b});
      continue;
    }

    // Barrier ops: parametric evaluators, MCX/MCZ, generic kQ. They pin the
    // frontier of every operand qubit.
    switch (cur.kind) {
      case CompiledOpKind::kMCX:
      case CompiledOpKind::kMCZ:
      case CompiledOpKind::kKQDense: {
        std::vector<int> touched = cur.qubits;
        if (cur.kind != CompiledOpKind::kKQDense) touched.push_back(cur.q0);
        const int idx = static_cast<int>(out.size());
        for (int q : touched) last[q] = idx;
        out.push_back(std::move(cur));
        prevs.push_back({-1, -1});
        break;
      }
      default: {  // Parametric 1Q/2Q.
        const int idx = static_cast<int>(out.size());
        last[cur.q0] = idx;
        if (GateArity(cur.src) == 2) last[cur.q1] = idx;
        out.push_back(std::move(cur));
        prevs.push_back({-1, -1});
        break;
      }
    }
  }

  // Compact the tombstones left by absorbed 1Q ops.
  std::vector<CompiledOp> compact;
  compact.reserve(out.size());
  for (CompiledOp& op : out) {
    if (op.kind != CompiledOpKind::kNop) compact.push_back(std::move(op));
  }
  return compact;
}

// ---- Diagonal runs ----------------------------------------------------------

/// True for a 1Q/2Q diagonal op, constant or parametric (a parametric op's
/// kind is provisional until bound; its source gate decides).
bool IsDiagonalOp(const CompiledOp& op) {
  if (op.parametric()) return IsDiagonalGate(op.src);
  return op.kind == CompiledOpKind::k1QDiag ||
         op.kind == CompiledOpKind::k2QDiag;
}

/// Adds the Walsh expansion of a bound k1QDiag/k2QDiag op's phase function
/// into `walsh`: local mask S (bit 1 = q0, bit 0 = q1 for 2Q) lands on
/// walsh[slots[S]] as 2^-k Σ_x arg(c_x) · (−1)^{|x ∧ S|}. Any branch of arg
/// works: the expansion reproduces each entry's phase exactly.
void AddDiagonalPhase(const CompiledOp& op, const std::array<uint32_t, 4>& slots,
                      std::vector<WalshTerm>& walsh) {
  const int k = op.kind == CompiledOpKind::k1QDiag ? 1 : 2;
  double phi[4];
  for (int x = 0; x < (1 << k); ++x) phi[x] = std::arg(op.c[x]);
  FastWalshHadamard(phi, k);
  const double scale = k == 1 ? 0.5 : 0.25;
  for (int s = 0; s < (1 << k); ++s) {
    walsh[slots[s]].coefficient += scale * phi[s];
  }
}

/// Folds ops [begin, end), all diagonal, into one kDiagonalRun. Constant
/// members are expanded now; parametric ones keep their expressions and the
/// term slots their coefficients add into at bind time.
CompiledOp MakeDiagonalRun(std::vector<CompiledOp>& ops, size_t begin,
                           size_t end, int num_qubits) {
  CompiledOp run;
  run.kind = CompiledOpKind::kDiagonalRun;
  run.fused_gates = 0;
  std::unordered_map<uint64_t, uint32_t> slot_of;
  auto slot = [&](uint64_t mask) {
    auto [it, inserted] =
        slot_of.try_emplace(mask, static_cast<uint32_t>(run.walsh.size()));
    if (inserted) run.walsh.push_back(WalshTerm{mask, 0.0});
    return it->second;
  };
  const auto bit = [num_qubits](int q) {
    return uint64_t{1} << (num_qubits - 1 - q);
  };
  for (size_t i = begin; i < end; ++i) {
    CompiledOp& op = ops[i];
    const bool two_qubit = op.parametric()
                               ? GateArity(op.src) == 2
                               : op.kind == CompiledOpKind::k2QDiag;
    std::array<uint32_t, 4> slots{};
    if (two_qubit) {
      const uint64_t hi = bit(op.q0);
      const uint64_t lo = bit(op.q1);
      slots = {slot(0), slot(lo), slot(hi), slot(hi | lo)};
    } else {
      slots = {slot(0), slot(bit(op.q0)), 0, 0};
    }
    run.fused_gates += op.fused_gates;
    if (op.parametric()) {
      run.members.push_back(DiagonalRunMember{op.src, op.q0, op.q1,
                                              std::move(op.exprs), slots});
    } else {
      AddDiagonalPhase(op, slots, run.walsh);
    }
  }
  return run;
}

/// Collapses every maximal run of at least kMinDiagonalRunOps consecutive
/// diagonal ops into one kDiagonalRun; shorter runs pass through.
std::vector<CompiledOp> DiagonalRunPass(std::vector<CompiledOp> in,
                                        int num_qubits, CompileStats& stats) {
  std::vector<CompiledOp> out;
  out.reserve(in.size());
  size_t idx = 0;
  while (idx < in.size()) {
    size_t end = idx;
    while (end < in.size() && IsDiagonalOp(in[end])) ++end;
    if (end - idx >= kMinDiagonalRunOps) {
      out.push_back(MakeDiagonalRun(in, idx, end, num_qubits));
      ++stats.diagonal_runs;
      stats.diagonal_run_gates += static_cast<size_t>(out.back().fused_gates);
      idx = end;
      continue;
    }
    if (end == idx) end = idx + 1;  // A non-diagonal op passes alone.
    for (; idx < end; ++idx) out.push_back(std::move(in[idx]));
  }
  return out;
}

/// Binds a kDiagonalRun: its constant terms plus each parametric member's
/// expansion at the bound angles, added in member order.
CompiledOp BindDiagonalRun(const CompiledOp& op, const DVector& params) {
  CompiledOp bound;
  bound.kind = CompiledOpKind::kDiagonalRun;
  bound.walsh = op.walsh;
  DVector angles;
  for (const DiagonalRunMember& m : op.members) {
    angles.clear();
    for (const ParamExpr& e : m.exprs) angles.push_back(e.Evaluate(params));
    CompiledOp gate;
    LowerBound(m.src, angles, &gate);
    AddDiagonalPhase(gate, m.slots, bound.walsh);
  }
  return bound;
}

/// Binds a thin parametric evaluator: its angles from `params`, its payload
/// through the same LowerBound ladder constant gates take.
CompiledOp BindGate(const CompiledOp& op, const DVector& params) {
  DVector angles;
  angles.reserve(op.exprs.size());
  for (const ParamExpr& e : op.exprs) angles.push_back(e.Evaluate(params));
  CompiledOp bound;
  bound.q0 = op.q0;
  bound.q1 = op.q1;
  bound.src = op.src;
  LowerBound(op.src, angles, &bound);
  return bound;
}

// ---- Single-qubit runs ------------------------------------------------------

bool Is1QOp(const CompiledOp& op) {
  return op.kind == CompiledOpKind::k1QDense ||
         op.kind == CompiledOpKind::k1QDiag;
}

/// Reorders each maximal run of single-qubit ops (constant or parametric) by
/// qubit so that its ops on low index bits sit next to the neighbour replay
/// can tile with: after a 1Q/2Q op or a diagonal run, low bits first (they
/// join the tiled run the neighbour ends), otherwise high bits first (they
/// join whatever follows). Ops on distinct qubits commute exactly and the
/// sort is stable, so every qubit keeps its own op order and the program's
/// unitary is unchanged; only round-off moves.
void OrderSingleQubitRuns(std::vector<CompiledOp>& ops) {
  size_t begin = 0;
  while (begin < ops.size()) {
    if (!Is1QOp(ops[begin])) {
      ++begin;
      continue;
    }
    size_t end = begin;
    while (end < ops.size() && Is1QOp(ops[end])) ++end;
    bool low_first = false;
    if (begin > 0) {
      switch (ops[begin - 1].kind) {
        case CompiledOpKind::kControlled1Q:
        case CompiledOpKind::k2QDiag:
        case CompiledOpKind::k2QDense:
        case CompiledOpKind::kDiagonalRun:
          low_first = true;
          break;
        default:
          break;
      }
    }
    // Qubit 0 is the index MSB: low bits first means descending qubits.
    std::stable_sort(ops.begin() + static_cast<ptrdiff_t>(begin),
                     ops.begin() + static_cast<ptrdiff_t>(end),
                     [low_first](const CompiledOp& a, const CompiledOp& b) {
                       return low_first ? a.q0 > b.q0 : a.q0 < b.q0;
                     });
    begin = end;
  }
}

// ---- Product prefix ---------------------------------------------------------

/// Length of the leading run of single-qubit ops, constant or parametric (a
/// parametric 1Q evaluator carries the provisional kind k1QDense).
size_t ProductPrefixLength(const std::vector<CompiledOp>& ops) {
  size_t len = 0;
  while (len < ops.size() && Is1QOp(ops[len])) ++len;
  return len;
}

/// True iff `state` is bit for bit |0…0⟩: a[0] = 1 + 0i and every other
/// amplitude +0. A −0 anywhere counts as another state, which only costs
/// the fast path.
bool IsZeroState(const StateVector& state) {
  const double* re = state.reals();
  const double* im = state.imags();
  const auto bits = [](double x) {
    uint64_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
  };
  if (re[0] != 1.0 || bits(im[0]) != 0) return false;
  constexpr uint64_t kStep = 4096;  // Early exit between steps.
  const uint64_t dim = state.dim();
  for (uint64_t b = 1; b < dim; b += kStep) {
    const uint64_t e = std::min(dim, b + kStep);
    uint64_t any = 0;
    for (uint64_t i = b; i < e; ++i) any |= bits(re[i]) | bits(im[i]);
    if (any != 0) return false;
  }
  return true;
}

/// Fills table[0, 2^k) with the product over `factors` (k of them, factor j
/// on index bit j) of factor[bit j of the index], by doubling in bit order.
void ProductTable(const std::vector<const std::array<Complex, 2>*>& factors,
                  double* table_re, double* table_im) {
  table_re[0] = 1.0;
  table_im[0] = 0.0;
  uint64_t size = 1;
  for (const std::array<Complex, 2>* v : factors) {
    for (uint64_t j = 0; j < size; ++j) {
      const Complex t(table_re[j], table_im[j]);
      const Complex one = t * (*v)[1];
      const Complex zero = t * (*v)[0];
      table_re[j + size] = one.real();
      table_im[j + size] = one.imag();
      table_re[j] = zero.real();
      table_im[j] = zero.imag();
    }
    size <<= 1;
  }
}

/// Binds a program's product prefix ops[0, len) into one kProductState op:
/// qubit q ends in U_k…U_1|0⟩ for its prefix ops U_1…U_k, and the state is
/// the tensor product of those 2-vectors, factored into tables over the
/// high and low halves of the index bits.
CompiledOp BindProductState(const std::vector<CompiledOp>& ops, size_t len,
                            int num_qubits, const DVector& params) {
  std::vector<std::array<Complex, 2>> v(
      static_cast<size_t>(num_qubits), {Complex(1, 0), Complex(0, 0)});
  for (size_t i = 0; i < len; ++i) {
    const CompiledOp bound =
        ops[i].parametric() ? BindGate(ops[i], params) : ops[i];
    std::array<Complex, 2>& x = v[static_cast<size_t>(bound.q0)];
    if (bound.kind == CompiledOpKind::k1QDiag) {
      x = {bound.c[0] * x[0], bound.c[1] * x[1]};
    } else {
      x = {bound.c[0] * x[0] + bound.c[1] * x[1],
           bound.c[2] * x[0] + bound.c[3] * x[1]};
    }
  }
  const int low_bits = num_qubits - num_qubits / 2;
  const uint64_t low_size = uint64_t{1} << low_bits;
  const uint64_t high_size = uint64_t{1} << (num_qubits - low_bits);
  // Index bit j belongs to qubit num_qubits - 1 - j.
  std::vector<const std::array<Complex, 2>*> low, high;
  for (int j = 0; j < num_qubits; ++j) {
    (j < low_bits ? low : high)
        .push_back(&v[static_cast<size_t>(num_qubits - 1 - j)]);
  }
  CompiledOp op;
  op.kind = CompiledOpKind::kProductState;
  op.q0 = low_bits;
  op.fused_gates = static_cast<int>(len);
  op.product.resize(2 * (high_size + low_size));
  double* p = op.product.data();
  ProductTable(high, p, p + high_size);
  ProductTable(low, p + 2 * high_size, p + 2 * high_size + low_size);
  return op;
}

/// Writes a kProductState op's amplitudes over [b, e).
void ApplyProductStateRange(const CompiledOp& op, int num_qubits, double* re,
                            double* im, uint64_t b, uint64_t e,
                            simd::SimdLevel lvl) {
  const uint64_t high_size = uint64_t{1} << (num_qubits - op.q0);
  const uint64_t low_size = uint64_t{1} << op.q0;
  const double* p = op.product.data();
  simd::ProductStateRange(lvl, re, im, b, e, p, p + high_size,
                          p + 2 * high_size, p + 2 * high_size + low_size,
                          op.q0);
}

// ---- Tile-parallel execution ------------------------------------------------

/// True when every operand bit of `op` lies below bit `tile_bits`, so the op
/// maps each aligned 2^tile_bits-amplitude tile onto itself and can be
/// applied tile-locally. Swap/MCX/MCZ/kQ kinds act as barriers.
bool IsTileable(const CompiledOp& op, int num_qubits, int tile_bits) {
  const auto below = [num_qubits, tile_bits](int q) {
    return (num_qubits - 1 - q) < tile_bits;
  };
  switch (op.kind) {
    case CompiledOpKind::kDiagonalRun:
    case CompiledOpKind::kProductState:
      return true;  // Element-wise: every tile maps onto itself.
    case CompiledOpKind::k1QDense:
    case CompiledOpKind::k1QDiag:
      return below(op.q0);
    case CompiledOpKind::kControlled1Q:
    case CompiledOpKind::k2QDiag:
    case CompiledOpKind::k2QDense:
      return below(op.q0) && below(op.q1);
    default:
      return false;
  }
}

/// Applies one resolved, tileable op to the tile-aligned amplitude range
/// [b0, b1). Pair/group subranges of a tile are exactly the pairs/groups
/// whose indices fall inside it (all operand bits sit below the tile
/// boundary), and the range kernels perform the identical per-element
/// arithmetic the full-state StateVector methods do — so tiled replay is
/// bit-identical to op-at-a-time replay.
void ApplyOpToTile(const CompiledOp& op, int num_qubits, double* re,
                   double* im, uint64_t b0, uint64_t b1, simd::SimdLevel lvl) {
  const auto pos = [num_qubits](int q) { return num_qubits - 1 - q; };
  switch (op.kind) {
    case CompiledOpKind::k1QDense: {
      const uint64_t stride = uint64_t{1} << pos(op.q0);
      const double m[8] = {op.c[0].real(), op.c[0].imag(), op.c[1].real(),
                           op.c[1].imag(), op.c[2].real(), op.c[2].imag(),
                           op.c[3].real(), op.c[3].imag()};
      simd::Apply1QRange(lvl, re, im, b0 / 2, b1 / 2, stride, m);
      break;
    }
    case CompiledOpKind::k1QDiag: {
      const uint64_t mask = uint64_t{1} << pos(op.q0);
      const double d[4] = {op.c[0].real(), op.c[0].imag(), op.c[1].real(),
                           op.c[1].imag()};
      simd::Diag1QRange(lvl, re, im, b0, b1, mask, d);
      break;
    }
    case CompiledOpKind::kControlled1Q: {
      const uint64_t cmask = uint64_t{1} << pos(op.q0);
      const uint64_t stride = uint64_t{1} << pos(op.q1);
      const double m[8] = {op.c[0].real(), op.c[0].imag(), op.c[1].real(),
                           op.c[1].imag(), op.c[2].real(), op.c[2].imag(),
                           op.c[3].real(), op.c[3].imag()};
      simd::Controlled1QRange(lvl, re, im, b0 / 2, b1 / 2, stride, cmask, m);
      break;
    }
    case CompiledOpKind::k2QDiag: {
      const uint64_t amask = uint64_t{1} << pos(op.q0);
      const uint64_t bmask = uint64_t{1} << pos(op.q1);
      const double d[8] = {op.c[0].real(), op.c[0].imag(), op.c[1].real(),
                           op.c[1].imag(), op.c[2].real(), op.c[2].imag(),
                           op.c[3].real(), op.c[3].imag()};
      simd::Diag2QRange(lvl, re, im, b0, b1, amask, bmask, d);
      break;
    }
    case CompiledOpKind::k2QDense: {
      const uint64_t amask = uint64_t{1} << pos(op.q0);
      const uint64_t bmask = uint64_t{1} << pos(op.q1);
      const uint64_t lo_pos =
          std::min<uint64_t>(pos(op.q0), pos(op.q1));
      const uint64_t hi_pos =
          std::max<uint64_t>(pos(op.q0), pos(op.q1));
      const uint64_t lo_keep = (uint64_t{1} << lo_pos) - 1;
      const uint64_t mid_keep = ((uint64_t{1} << (hi_pos - 1)) - 1) & ~lo_keep;
      double mr[4][4], mi[4][4];
      for (int r = 0; r < 4; ++r) {
        for (int col = 0; col < 4; ++col) {
          const Complex entry = op.m(r, col);
          mr[r][col] = entry.real();
          mi[r][col] = entry.imag();
        }
      }
      simd::Apply2QRange(lvl, re, im, b0 / 4, b1 / 4, amask, bmask, lo_keep,
                         mid_keep, mr, mi);
      break;
    }
    case CompiledOpKind::kDiagonalRun:
      ApplyWalshPhaseRange(lvl, op.walsh, re, im, b0, b1);
      break;
    case CompiledOpKind::kProductState:
      ApplyProductStateRange(op, num_qubits, re, im, b0, b1, lvl);
      break;
    default:
      QDB_CHECK(false) << "non-tileable op in a tiled run";
  }
}

/// Applies a run of tileable ops tile by tile, one RunTasks task per tile:
/// every tile gets the whole run before the lane moves on, so the tile stays
/// cache-resident across the run and the run costs one fork-join. Tiles
/// partition the state and each op maps a tile onto itself, so neither the
/// tile size nor the lane count can change results — every amplitude gets
/// the same op composition, computed with the same elementary operations,
/// as in the op-by-op full-state walk.
void ExecuteTiledRun(const std::vector<const CompiledOp*>& run,
                     StateVector& state, int tile_bits) {
  const int n = state.num_qubits();
  double* re = state.reals();
  double* im = state.imags();
  const simd::SimdLevel lvl = simd::ActiveSimdLevel();
  const uint64_t tile = uint64_t{1} << tile_bits;
  const size_t num_tiles = static_cast<size_t>(state.dim() >> tile_bits);
  ThreadPool::Global().RunTasks(num_tiles, [&](size_t t) {
    const uint64_t b0 = static_cast<uint64_t>(t) * tile;
    for (const CompiledOp* op : run) {
      ApplyOpToTile(*op, n, re, im, b0, b0 + tile, lvl);
    }
  });
}

/// Applies one resolved op to the whole state: the op → kernel dispatch for
/// replay's ops outside tiled runs and for every streamed gate. Forced inline
/// so Execute's loop keeps the switch in place.
[[gnu::always_inline]] inline void ApplyOp(const CompiledOp& op,
                                           StateVector& state) {
  switch (op.kind) {
    case CompiledOpKind::kNop:
      break;
    case CompiledOpKind::k1QDense:
      state.Apply1Q(op.q0, op.c[0], op.c[1], op.c[2], op.c[3]);
      break;
    case CompiledOpKind::k1QDiag:
      state.ApplyDiagonal1Q(op.q0, op.c[0], op.c[1]);
      break;
    case CompiledOpKind::kControlled1Q:
      state.ApplyControlled1Q(op.q0, op.q1, op.c[0], op.c[1], op.c[2],
                              op.c[3]);
      break;
    case CompiledOpKind::k2QDiag:
      state.ApplyDiagonal2Q(op.q0, op.q1, op.c[0], op.c[1], op.c[2], op.c[3]);
      break;
    case CompiledOpKind::k2QDense:
      state.Apply2Q(op.q0, op.q1, op.m);
      break;
    case CompiledOpKind::kSwap:
      state.ApplySwap(op.q0, op.q1);
      break;
    case CompiledOpKind::kMCX:
      state.ApplyMCX(op.qubits, op.q0);
      break;
    case CompiledOpKind::kMCZ:
      state.ApplyMCZ(op.qubits, op.q0);
      break;
    case CompiledOpKind::kKQDense:
      state.ApplyKQ(op.qubits, op.m);
      break;
    case CompiledOpKind::kDiagonalRun:
      state.ApplyWalshPhase(op.walsh);
      break;
    case CompiledOpKind::kProductState: {
      const int n = state.num_qubits();
      double* re = state.reals();
      double* im = state.imags();
      const simd::SimdLevel lvl = simd::ActiveSimdLevel();
      const auto write = [&](uint64_t b, uint64_t e) {
        ApplyProductStateRange(op, n, re, im, b, e, lvl);
      };
      if (state.dim() >= kParallelAmplitudeThreshold) {
        ThreadPool::Global().ParallelFor(0, state.dim(), write);
      } else {
        write(0, state.dim());
      }
      break;
    }
  }
}

/// Per-op metric increments shared by the tiled and op-at-a-time replay paths
/// and streamed gates.
void CountOp(const CompiledOp& op, long dim, CompiledCounters& counters) {
  switch (op.kind) {
    case CompiledOpKind::kNop:
      break;
    case CompiledOpKind::k1QDense:
      counters.generic_1q->Increment();
      counters.amplitude_touches->Increment(dim);
      break;
    case CompiledOpKind::k1QDiag:
      counters.diagonal_1q->Increment();
      counters.amplitude_touches->Increment(dim);
      break;
    case CompiledOpKind::kControlled1Q:
      counters.controlled_1q->Increment();
      counters.amplitude_touches->Increment(dim / 2);
      break;
    case CompiledOpKind::k2QDiag:
      counters.diagonal_2q->Increment();
      counters.amplitude_touches->Increment(dim);
      break;
    case CompiledOpKind::k2QDense:
      counters.generic_2q->Increment();
      counters.amplitude_touches->Increment(dim);
      break;
    case CompiledOpKind::kSwap:
      counters.swap->Increment();
      counters.amplitude_touches->Increment(dim / 2);
      break;
    case CompiledOpKind::kMCX:
      counters.multi_controlled->Increment();
      counters.amplitude_touches->Increment(
          dim >> std::min<size_t>(op.qubits.size(), 62));
      break;
    case CompiledOpKind::kMCZ:
      counters.multi_controlled->Increment();
      counters.amplitude_touches->Increment(
          dim >> std::min<size_t>(op.qubits.size() + 1, 62));
      break;
    case CompiledOpKind::kKQDense:
      counters.generic_kq->Increment();
      counters.amplitude_touches->Increment(dim);
      break;
    case CompiledOpKind::kDiagonalRun:
      counters.diagonal_run->Increment();
      counters.amplitude_touches->Increment(dim);
      break;
    case CompiledOpKind::kProductState:
      counters.product_state->Increment();
      counters.amplitude_touches->Increment(dim);
      break;
  }
}

}  // namespace

std::vector<int> LightCone(const Circuit& circuit,
                           const std::vector<int>& support,
                           std::vector<bool>* keep) {
  const int n = circuit.num_qubits();
  std::vector<bool> in_cone(static_cast<size_t>(n), support.empty());
  for (int q : support) {
    QDB_CHECK(q >= 0 && q < n) << "support qubit " << q << " out of range";
    in_cone[static_cast<size_t>(q)] = true;
  }
  const std::vector<Gate>& gates = circuit.gates();
  if (keep != nullptr) keep->assign(gates.size(), false);
  for (size_t i = gates.size(); i-- > 0;) {
    bool touches = false;
    for (int q : gates[i].qubits) touches |= in_cone[static_cast<size_t>(q)];
    if (!touches) continue;
    for (int q : gates[i].qubits) in_cone[static_cast<size_t>(q)] = true;
    if (keep != nullptr) (*keep)[i] = true;
  }
  std::vector<int> qubits;
  for (int q = 0; q < n; ++q) {
    if (in_cone[static_cast<size_t>(q)]) qubits.push_back(q);
  }
  return qubits;
}

void StreamGate(const Gate& gate, const DVector& angles, StateVector& state) {
  CompiledOp op;
  if (!LowerBoundGate(gate, angles, &op)) return;
  ApplyOp(op, state);
  CountOp(op, static_cast<long>(state.dim()), Counters());
}

CompiledCircuit CompiledCircuit::Compile(const Circuit& circuit,
                                         const CompileOptions& options) {
  QDB_TRACE_SCOPE("CompiledCircuit::Compile", "compile");
  CompiledCircuit compiled;
  compiled.num_parameters_ = circuit.num_parameters();

  // The light cone: drop the gates outside it, then relabel its qubits
  // 0..k−1 in ascending order before lowering.
  std::vector<bool> keep;
  compiled.source_qubits_ = LightCone(circuit, options.support, &keep);
  compiled.num_qubits_ = static_cast<int>(compiled.source_qubits_.size());
  const bool relabel = compiled.num_qubits_ < circuit.num_qubits();
  std::vector<int> program_qubit(static_cast<size_t>(circuit.num_qubits()));
  for (int p = 0; p < compiled.num_qubits_; ++p) {
    program_qubit[static_cast<size_t>(compiled.source_qubits_[p])] = p;
  }

  std::vector<CompiledOp> ops;
  ops.reserve(circuit.size());
  for (size_t i = 0; i < circuit.size(); ++i) {
    const Gate& gate = circuit.gates()[i];
    if (!keep[i]) {
      ++compiled.stats_.pruned_gates;
    } else if (relabel) {
      Gate relabelled = gate;
      for (int& q : relabelled.qubits) q = program_qubit[static_cast<size_t>(q)];
      LowerGate(relabelled, ops);
    } else {
      LowerGate(gate, ops);
    }
  }
  compiled.stats_.source_gates = circuit.size() - compiled.stats_.pruned_gates;
  compiled.stats_.lowered_ops = ops.size();

  if (options.fuse) {
    ops = FusePass(std::move(ops), compiled.num_qubits_, compiled.stats_);
    ops = DiagonalRunPass(std::move(ops), compiled.num_qubits_,
                          compiled.stats_);
    OrderSingleQubitRuns(ops);
    compiled.stats_.product_prefix_ops = ProductPrefixLength(ops);
  }
  compiled.stats_.emitted_ops = ops.size();
  compiled.ops_ = std::move(ops);

  CompiledCounters& counters = Counters();
  counters.circuits->Increment();
  counters.source_gates->Increment(
      static_cast<long>(compiled.stats_.source_gates));
  counters.pruned_gates->Increment(
      static_cast<long>(compiled.stats_.pruned_gates));
  counters.ops_emitted->Increment(
      static_cast<long>(compiled.stats_.emitted_ops));
  counters.fused_1q1q->Increment(static_cast<long>(compiled.stats_.fused_1q1q));
  counters.fused_diag->Increment(static_cast<long>(compiled.stats_.fused_diag));
  counters.fused_1q2q->Increment(static_cast<long>(compiled.stats_.fused_1q2q));
  counters.fused_2q2q->Increment(static_cast<long>(compiled.stats_.fused_2q2q));
  counters.diagonal_runs->Increment(
      static_cast<long>(compiled.stats_.diagonal_runs));
  counters.ops_eliminated->Increment(static_cast<long>(
      compiled.stats_.lowered_ops - compiled.stats_.emitted_ops));
  compiled.replays_by_qubits_ =
      counters.replays_by_qubits->With(StrCat(compiled.num_qubits_));
  return compiled;
}

Status CompiledCircuit::Execute(StateVector& state,
                                const DVector& params) const {
  return ExecuteWithTileBits(state, params, kReplayTileBits);
}

Status CompiledCircuit::ExecuteWithTileBits(StateVector& state,
                                            const DVector& params,
                                            int tile_bits) const {
  if (state.num_qubits() != num_qubits_) {
    return Status::InvalidArgument(
        StrCat("state has ", state.num_qubits(),
               " qubits but compiled circuit has ", num_qubits_));
  }
  if (static_cast<int>(params.size()) < num_parameters_) {
    return Status::InvalidArgument(
        StrCat("compiled circuit references ", num_parameters_,
               " parameters but only ", params.size(), " were bound"));
  }
  if (tile_bits < kWalshBlockBits) {
    return Status::InvalidArgument(
        StrCat("replay tiles need at least ", kWalshBlockBits, " bits, got ",
               tile_bits));
  }
  // Replays that reach the parallel threshold get a span; below it a replay
  // takes microseconds, and a span (two clock reads and a ring write,
  // ~110 ns) would cost a tenth of a few-qubit one. Smaller replays are
  // still counted (compile.replays); served batches and gradient batches
  // time them under their own spans.
  std::optional<obs::TraceSpan> span;
  if (state.dim() >= kParallelAmplitudeThreshold) {
    span.emplace("CompiledCircuit::Execute", "sim");
  }
  CompiledCounters& counters = Counters();
  counters.replays->Increment();
  if (replays_by_qubits_ != nullptr) replays_by_qubits_->Increment();
  const long dim = static_cast<long>(state.dim());

  // Bind parametric ops up front so run detection sees resolved kinds. The
  // deque gives the bound copies stable addresses. On |0…0⟩ the product
  // prefix binds into one op that writes its product state.
  std::deque<CompiledOp> bound_storage;
  std::vector<const CompiledOp*> resolved;
  resolved.reserve(ops_.size());
  size_t first = 0;
  const size_t prefix = stats_.product_prefix_ops;
  if (prefix > 0 && IsZeroState(state)) {
    bound_storage.push_back(
        BindProductState(ops_, prefix, num_qubits_, params));
    resolved.push_back(&bound_storage.back());
    first = prefix;
  }
  for (size_t i = first; i < ops_.size(); ++i) {
    const CompiledOp& op = ops_[i];
    if (!op.parametric()) {
      resolved.push_back(&op);
    } else if (op.kind == CompiledOpKind::kDiagonalRun) {
      bound_storage.push_back(BindDiagonalRun(op, params));
      resolved.push_back(&bound_storage.back());
    } else {
      bound_storage.push_back(BindGate(op, params));
      resolved.push_back(&bound_storage.back());
    }
  }

  // Tiles engage on states the pool splits anyway (smaller ones replay
  // serially, op at a time) that hold at least two tiles; each run of ≥ 2
  // consecutive tileable ops then costs one fork-join and one pass.
  const bool can_tile = state.dim() >= kParallelAmplitudeThreshold &&
                        num_qubits_ > tile_bits;
  std::vector<const CompiledOp*> run;
  size_t idx = 0;
  while (idx < resolved.size()) {
    const CompiledOp* op = resolved[idx];
    if (can_tile && IsTileable(*op, num_qubits_, tile_bits)) {
      size_t end = idx;
      while (end < resolved.size() &&
             IsTileable(*resolved[end], num_qubits_, tile_bits)) {
        ++end;
      }
      if (end - idx >= 2) {
        run.assign(resolved.begin() + static_cast<ptrdiff_t>(idx),
                   resolved.begin() + static_cast<ptrdiff_t>(end));
        ExecuteTiledRun(run, state, tile_bits);
        for (size_t i = idx; i < end; ++i) CountOp(*resolved[i], dim, counters);
        idx = end;
        continue;
      }
    }
    ApplyOp(*op, state);
    CountOp(*op, dim, counters);
    ++idx;
  }
  return Status::OK();
}

CompilationCache& CompilationCache::Global() {
  static CompilationCache* cache = new CompilationCache(/*capacity=*/256);
  return *cache;
}

std::shared_ptr<const CompiledCircuit> CompilationCache::GetOrCompile(
    const Circuit& circuit, const CompileOptions& options) {
  // "q,q,…;" then the fuse flag: a self-delimiting prefix, so no two
  // (options, circuit) pairs share a key.
  std::string key;
  for (int q : options.support) key += StrCat(q, ",");
  key.push_back(';');
  key.push_back(options.fuse ? '\1' : '\0');
  key += circuit.StructuralFingerprint();
  CompiledCounters& counters = Counters();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    counters.cache_hits->Increment();
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.program;
  }
  counters.cache_misses->Increment();
  ++misses_;
  auto program = std::make_shared<const CompiledCircuit>(
      CompiledCircuit::Compile(circuit, options));
  lru_.push_front(key);
  entries_[std::move(key)] = Entry{program, lru_.begin()};
  while (entries_.size() > capacity_) {
    counters.cache_evictions->Increment();
    ++evictions_;
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  counters.cache_size->Set(static_cast<double>(entries_.size()));
  return program;
}

void CompilationCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  Counters().cache_size->Set(0.0);
}

CompilationCache::Stats CompilationCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.size = entries_.size();
  s.capacity = capacity_;
  return s;
}

size_t CompilationCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void CompilationCache::set_capacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::max<size_t>(capacity, 1);
  while (entries_.size() > capacity_) {
    Counters().cache_evictions->Increment();
    ++evictions_;
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  Counters().cache_size->Set(static_cast<double>(entries_.size()));
}

}  // namespace qdb
