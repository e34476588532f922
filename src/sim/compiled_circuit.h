/// \file compiled_circuit.h
/// \brief One-time lowering of a Circuit into a flat program of typed kernel
/// ops, with gate fusion and a process-wide compilation cache, and the
/// simulator's one op → kernel dispatch.
///
/// Every gate qdb simulates on a state vector is lowered here to a
/// CompiledOp and applied through one dispatch; there is one ladder and no
/// mode knob. Two executions share it:
///
///   stream — StreamGate lowers one bound gate and applies it at once,
///            without fusion and without the cache. Single gates, one-shot
///            circuits (StateVectorSimulator::RunStreamed) and the adjoint
///            rewind take this path;
///   compile — CompiledCircuit lowers the gate list once and replays it.
///            For the repeated-execution workloads qdb cares about — Gram
///            matrices, parameter-shift batches, variational training
///            loops — the circuit structure is fixed and only the bound
///            parameter vector changes, so lowering per run is pure
///            overhead:
///
///   cone   — with CompileOptions::support set (the observable's qubits),
///            drop every gate outside the support's backward light cone
///            and relabel the cone's k qubits 0..k−1 in ascending order:
///            the program then runs on a k-qubit state, exact from |0…0⟩.
///            The pass is independent of fusion; an empty or whole-register
///            support keeps today's program;
///   lower  — resolve every gate to its specialized kernel (dense/diagonal/
///            controlled 1Q, dense/diagonal 2Q, swap, MCX/MCZ, generic kQ)
///            with constant matrices baked in; parametric gates stay thin
///            angle → payload evaluators;
///   fuse   — merge adjacent constant single-qubit gates into one 2x2,
///            collapse runs of diagonal ops on shared operands into one
///            diagonal sweep, and fold neighboring 1Q/2Q constant gates that
///            share a qubit pair into a single dense 4x4 — each fused block
///            then costs one state sweep instead of several; then collapse
///            every maximal run of at least kMinDiagonalRunOps consecutive
///            diagonal ops, parametric RZ/RZZ/P/CP/CRZ included, into one
///            kDiagonalRun op: a single e^{iΦ} sweep whose phase function Φ
///            is carried as Walsh terms (sim/walsh.h) and re-expanded at
///            bind time.
///            Fusion then orders each run of single-qubit ops by qubit so
///            its low-bit ops sit next to the ops replay tiles with, and
///            marks the program's leading single-qubit run as its product
///            prefix;
///   replay — Execute() binds parameters and replays by layer, not by gate:
///            on |0…0⟩ the product prefix is one pass writing ⊗_q U_q|0⟩,
///            and every run of consecutive ops whose operands sit below the
///            replay tile boundary (kReplayTileBits) is applied tile by
///            tile, one ThreadPool task per tile — one fork-join and one
///            cache-resident pass per run. Other ops sweep the state alone.
///
/// Determinism: lowering and fusion are sequential compile-time passes whose
/// output depends only on the circuit, and the tile size is fixed, so a
/// compiled program produces bit-identical amplitudes at every
/// QDB_THREADS setting and SIMD level. Tiled and op-at-a-time replay apply
/// the same per-element arithmetic, so tiling never changes bits either. A
/// kDiagonalRun adds its terms in a fixed order and evaluates Φ per fixed
/// 2^kWalshBlockBits-index block with scalar code and simd::SinCosRange,
/// whose scalar and AVX2 paths agree bit for bit; a product-state pass
/// builds its factor tables serially and writes each amplitude as one
/// complex product on every level. With fusion disabled, compiled execution
/// issues exactly the kernel calls streaming would, with the same matrices
/// in the same order, and is therefore bit-identical to it (unfused programs
/// have no product prefix and keep their op order). The lowering ladder's
/// independent reference is the dense gate embedding of
/// PerGateEquivalenceTest (tests/sim_equivalence_test.cc), checked gate by
/// gate. With fusion enabled the composed matrices differ from
/// the sequential product only by floating-point round-off (~1e-15 per fused
/// pair or reordered 1Q run, ~n·1e-16 for a product state, and ~|Φ|·1e-16
/// for a diagonal run). Light-cone pruning is exact per gate — the dropped
/// gates cancel in ⟨O⟩ — so a cone program's expectations differ from
/// full-width replay only by round-off (at most 2.2e-15 over 200 random
/// inputs of a served 12-qubit VQC).

#ifndef QDB_SIM_COMPILED_CIRCUIT_H_
#define QDB_SIM_COMPILED_CIRCUIT_H_

#include <array>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.h"
#include "common/result.h"
#include "linalg/matrix.h"
#include "sim/state_vector.h"
#include "sim/walsh.h"

namespace qdb {

namespace obs {
class Counter;  // obs/metrics.h
}  // namespace obs

/// Shortest run of consecutive diagonal ops that fusion collapses into one
/// kDiagonalRun. A run's sweep costs about one vector sin/cos per amplitude
/// plus a per-block transform, whatever its length; below the threshold the
/// per-gate diagonal sweeps are cheaper. BM_DiagonalRunLength in
/// bench/bench_simulator.cc measures the crossover at 4–20 qubits on one
/// and four lanes: at 8 gates the fused run still loses at 12 qubits on one
/// lane, at 16 gates it wins in every cell, by 1.8× or more
/// (BENCH_simulator.json, E1 in EXPERIMENTS.md). So one constant serves
/// every width.
inline constexpr size_t kMinDiagonalRunOps = 16;

/// log2 of the amplitudes in one replay tile. Replay applies each run of
/// consecutive ops whose operands all sit below the tile boundary tile by
/// tile, one ThreadPool task per tile, so the run costs one fork-join and
/// one cache-resident pass over the state. BM_ReplayTileBits in
/// bench/bench_simulator.cc sweeps 2^11–2^16 tiles at 14–20 qubits on 1, 2
/// and 4 lanes (E1 in EXPERIMENTS.md). Over two sweeps 2^12 amplitudes
/// (64 KiB over both planes) stayed within 2% of the cheapest size while
/// 2^11 and 2^13 traded places, and no width shows a preference for
/// another size that the host's noise lets one resolve, so the tile is
/// 2^12 at every width. Results are identical at every tile size.
inline constexpr int kReplayTileBits = 12;

struct CompileOptions {
  /// Run the fusion passes. Disable to get a program that replays the
  /// streamed kernel sequence exactly (bit-identical results).
  bool fuse = true;
  /// The qubit support of the observable the program's state will be
  /// measured on. Empty means the whole register: the program is then the
  /// full circuit. Otherwise Compile keeps only the support's backward light
  /// cone (see LightCone) and the program runs on the cone's qubits alone,
  /// which is exact from |0…0⟩ only.
  std::vector<int> support = {};
};

/// \brief The backward light cone of the qubits `support` (empty: every
/// qubit) in `circuit`. Walking the gates backwards, a gate joins the cone
/// when it touches a qubit already in it and then adds all its operands.
/// Returns the cone's qubits in ascending order; `keep`, when given,
/// receives one flag per gate, true for the cone's gates. Gates outside the
/// cone cancel in ⟨ψ|U†OU|ψ⟩ for any O supported on `support`.
std::vector<int> LightCone(const Circuit& circuit,
                           const std::vector<int>& support,
                           std::vector<bool>* keep = nullptr);

/// \brief The kernel class a compiled op dispatches to: diagonal gates touch
/// each amplitude once, controlled gates skip the untouched half, generic
/// k-qubit gates fall back to the 2^k-group kernel.
enum class CompiledOpKind : uint8_t {
  kNop,           ///< Fused away; skipped at execution.
  k1QDense,       ///< 2x2 dense on q0.
  k1QDiag,        ///< diag(c0, c1) on q0.
  kControlled1Q,  ///< 2x2 block on target q1 when control q0 is set.
  k2QDiag,        ///< diag(c0..c3) on the (q0, q1) pair.
  k2QDense,       ///< 4x4 dense on (q0, q1); q0 is the high index bit.
  kSwap,          ///< Swap q0 and q1.
  kMCX,           ///< Multi-controlled X: controls in `qubits`, target q0.
  kMCZ,           ///< Multi-controlled Z over `qubits` ∪ {q0}.
  kKQDense,       ///< Generic 2^k dense over `qubits`.
  kDiagonalRun,   ///< e^{iΦ} with Φ = Σ `walsh` (+ bound `members`).
  /// Writes a product state from `product`'s factor tables. Replay builds
  /// it from a program's product prefix; programs never store one.
  kProductState,
};

/// \brief A parametric diagonal gate folded into a kDiagonalRun. Replay binds
/// its angles, expands its phase function over its 2^arity local masks and
/// adds coefficient S into `walsh[slots[S]]` of the run.
struct DiagonalRunMember {
  GateType src = GateType::kI;
  int q0 = 0;
  int q1 = 0;
  std::vector<ParamExpr> exprs;
  std::array<uint32_t, 4> slots{};
};

/// \brief One lowered op: kernel kind, operands, and either a baked constant
/// payload or the parameter expressions to evaluate it from at replay time.
struct CompiledOp {
  CompiledOpKind kind = CompiledOpKind::kNop;
  GateType src = GateType::kI;  ///< Source gate type (parametric re-lowering).
  int q0 = 0;
  int q1 = 0;
  /// Small constant payload: 2x2 row-major, diagonal pair/quad, or the
  /// controlled 2x2 block, depending on `kind`.
  std::array<Complex, 4> c{};
  Matrix m;                  ///< 4x4 (k2QDense) or 2^k (kKQDense) payload.
  std::vector<int> qubits;   ///< MCX controls / MCZ operands / kQ operands.
  std::vector<ParamExpr> exprs;  ///< Non-empty for parametric ops.
  /// kDiagonalRun: the run's phase Φ as Walsh terms, one per distinct mask;
  /// the constant gates' coefficients are summed in at compile time.
  std::vector<WalshTerm> walsh;
  std::vector<DiagonalRunMember> members;  ///< kDiagonalRun: parametric gates.
  /// kProductState: amplitude i is high[i >> q0] · low[i & (2^q0 − 1)];
  /// the planes are high re, high im, low re, low im, back to back.
  std::vector<double> product;
  int fused_gates = 1;       ///< Source gates folded into this op.

  bool parametric() const { return !exprs.empty() || !members.empty(); }
};

/// \brief Statistics from one compilation, exported as compile.*/fusion.*
/// metrics and useful in tests and benches.
struct CompileStats {
  /// Gates the program was compiled from (incl. identities): the input
  /// circuit's gates inside the support's light cone, every gate for a
  /// whole-register support.
  size_t source_gates = 0;
  size_t pruned_gates = 0;   ///< Gates outside the light cone, dropped.
  size_t lowered_ops = 0;    ///< Ops before fusion (identities drop here).
  size_t emitted_ops = 0;    ///< Ops after fusion.
  size_t fused_1q1q = 0;     ///< Adjacent 1Q pairs merged into one 2x2.
  size_t fused_diag = 0;     ///< Diagonal folds (1Q→2Q diag, 2Q-pair diag).
  size_t fused_1q2q = 0;     ///< 1Q gates folded into a dense 4x4.
  size_t fused_2q2q = 0;     ///< 2Q pairs on one qubit pair merged.
  size_t diagonal_runs = 0;  ///< kDiagonalRun ops emitted.
  size_t diagonal_run_gates = 0;  ///< Source gates folded into them.
  /// The product prefix: the program's leading run of single-qubit ops,
  /// constant or parametric. Replay on |0…0⟩ writes their product state in
  /// one pass instead of replaying them. Always 0 without fusion.
  size_t product_prefix_ops = 0;
};

/// \brief A circuit lowered to a flat, typed kernel program. Immutable after
/// Compile; safe to share across threads.
class CompiledCircuit {
 public:
  /// Lowers (and by default fuses) `circuit`, restricted to the light cone
  /// of `options.support`: the cone's qubits are relabelled 0..k−1 in
  /// ascending order and parameter indices keep their values. Never fails:
  /// every GateType in the IR has a lowering.
  static CompiledCircuit Compile(const Circuit& circuit,
                                 const CompileOptions& options = {});

  /// Replays the program on `state`, binding `params` to the symbolic
  /// parameters. Fails if widths mismatch or too few parameters are bound.
  /// A light-cone program takes a num_qubits()-qubit state.
  Status Execute(StateVector& state, const DVector& params = {}) const;

  /// Execute with replay tiles of 2^tile_bits amplitudes instead of
  /// 2^kReplayTileBits: the hook BM_ReplayTileBits sweeps to choose that
  /// constant. Every tile size gives the same bits; fails below
  /// kWalshBlockBits.
  Status ExecuteWithTileBits(StateVector& state, const DVector& params,
                             int tile_bits) const;

  /// The program's width k: the light cone's qubit count.
  int num_qubits() const { return num_qubits_; }
  /// The source-circuit qubit of each program qubit, ascending.
  const std::vector<int>& source_qubits() const { return source_qubits_; }
  int num_parameters() const { return num_parameters_; }
  size_t num_ops() const { return ops_.size(); }
  const std::vector<CompiledOp>& ops() const { return ops_; }
  const CompileStats& stats() const { return stats_; }

 private:
  CompiledCircuit() = default;

  int num_qubits_ = 0;
  std::vector<int> source_qubits_;
  int num_parameters_ = 0;
  std::vector<CompiledOp> ops_;
  CompileStats stats_;
  /// compile.replays{qubits="n"} child, resolved once at Compile so replay
  /// pays one relaxed increment, not a label lookup.
  obs::Counter* replays_by_qubits_ = nullptr;
};

/// \brief Streaming execution of one bound gate: lowers `gate`, its angles
/// bound to `angles`, to one unfused CompiledOp and applies it to `state` in
/// place through replay's op-at-a-time dispatch, counting it in the
/// sim.gates.* and sim.amplitude_touches metrics. Identities are skipped.
void StreamGate(const Gate& gate, const DVector& angles, StateVector& state);

/// \brief Process-wide LRU cache of compiled programs, keyed by the
/// structural fingerprint of the circuit (gate types, operands, and
/// bit-exact parameter expressions) plus the compile options, support
/// included.
///
/// Repeated-execution workloads — RunBatch over one circuit, Gram/Cross
/// matrices, shift-rule gradients, training loops — compile once here and
/// replay. The key is a full structural encoding (not a lossy hash), so two
/// distinct circuits can never collide onto one program.
class CompilationCache {
 public:
  /// Point-in-time cache tallies. Unlike the process-wide compile.cache_*
  /// metrics (which aggregate over the registry's lifetime and survive
  /// ResetAll races in tests), these are owned by the cache instance, read
  /// atomically under its lock, and satisfy hits + misses == lookups and
  /// size == entries at every observation point.
  struct Stats {
    long hits = 0;
    long misses = 0;
    long evictions = 0;
    size_t size = 0;
    size_t capacity = 0;
  };

  static CompilationCache& Global();

  /// Returns the cached program for `circuit`, compiling on miss. Thread-
  /// safe; concurrent misses on one key compile once (the lock is held
  /// across the compile, which is O(gates) small-matrix work).
  std::shared_ptr<const CompiledCircuit> GetOrCompile(
      const Circuit& circuit, const CompileOptions& options = {});

  /// Drops every cached program and zeroes the hit/miss/eviction tallies
  /// (test hook).
  void Clear();

  size_t size() const;

  /// Consistent snapshot of the instance tallies.
  Stats stats() const;

  /// Maximum resident programs; least-recently-used entries evict beyond
  /// it. Default 256.
  void set_capacity(size_t capacity);

 private:
  explicit CompilationCache(size_t capacity) : capacity_(capacity) {}

  mutable std::mutex mu_;
  size_t capacity_;
  /// Instance tallies behind stats(); guarded by mu_.
  long hits_ = 0;
  long misses_ = 0;
  long evictions_ = 0;
  /// Most-recently-used key at the front.
  std::list<std::string> lru_;
  struct Entry {
    std::shared_ptr<const CompiledCircuit> program;
    std::list<std::string>::iterator lru_pos;
  };
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace qdb

#endif  // QDB_SIM_COMPILED_CIRCUIT_H_
