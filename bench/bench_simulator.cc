// E1 — Simulator scaling (foundation section).
//
// Regenerates the "cost of classical simulation" series: wall time and
// per-amplitude-gate throughput of the state-vector simulator on random
// dense circuits of depth 20, for n = 4…18 qubits. Expected shape: time
// grows as Θ(2^n) per gate (the exponential wall motivating quantum
// hardware), while ns/amplitude-op stays roughly flat.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "circuit/circuit.h"
#include "db/join_order_qubo.h"
#include "db/query_graph.h"
#include "encoding/encodings.h"
#include "sim/compiled_circuit.h"
#include "sim/mps.h"
#include "sim/simd.h"
#include "sim/statevector_simulator.h"
#include "sim/walsh.h"
#include "variational/qaoa.h"

namespace qdb {
namespace {

Circuit RandomDenseCircuit(int num_qubits, int depth, uint64_t seed) {
  Rng rng(seed);
  Circuit c(num_qubits);
  for (int layer = 0; layer < depth; ++layer) {
    for (int q = 0; q < num_qubits; ++q) {
      switch (rng.UniformInt(uint64_t{3})) {
        case 0: c.RX(q, rng.Uniform(-3.0, 3.0)); break;
        case 1: c.RY(q, rng.Uniform(-3.0, 3.0)); break;
        default: c.H(q); break;
      }
    }
    for (int q = layer % 2; q + 1 < num_qubits; q += 2) c.CX(q, q + 1);
  }
  return c;
}

void BM_StateVectorRandomCircuit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int depth = 20;
  Circuit c = RandomDenseCircuit(n, depth, 42);
  StateVectorSimulator sim;
  for (auto _ : state) {
    auto result = sim.Run(c);
    benchmark::DoNotOptimize(result);
  }
  const double amps = static_cast<double>(uint64_t{1} << n);
  const double amp_gate_ops = amps * static_cast<double>(c.size());
  state.counters["qubits"] = n;
  state.counters["gates"] = static_cast<double>(c.size());
  state.counters["ns_per_amp_gate"] = benchmark::Counter(
      amp_gate_ops, benchmark::Counter::kIsIterationInvariantRate |
                        benchmark::Counter::kInvert);
}

BENCHMARK(BM_StateVectorRandomCircuit)
    ->DenseRange(4, 18, 2)
    ->Unit(benchmark::kMillisecond);

// Streamed-vs-compiled pair on the same random dense circuit: the streamed
// variant lowers and applies each gate in turn, unfused and uncached (its
// name stays so the recorded rows remain comparable across snapshots); the
// compiled variant compiles once outside the timed loop and replays the
// fused program. The ratio of the two is the headline compilation speedup.
void BM_InterpretedRandomCircuit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Circuit c = RandomDenseCircuit(n, 20, 42);
  const StateVectorSimulator sim;
  for (auto _ : state) {
    StateVector psi(n);
    Status status = sim.RunStreamed(c, psi);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(psi);
  }
  state.counters["qubits"] = n;
  state.counters["gates"] = static_cast<double>(c.size());
}

BENCHMARK(BM_InterpretedRandomCircuit)
    ->DenseRange(4, 18, 2)
    ->Unit(benchmark::kMillisecond);

void BM_CompiledRandomCircuit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Circuit c = RandomDenseCircuit(n, 20, 42);
  const CompiledCircuit program = CompiledCircuit::Compile(c);
  for (auto _ : state) {
    StateVector psi(n);
    Status status = program.Execute(psi);
    benchmark::DoNotOptimize(status);
    benchmark::DoNotOptimize(psi);
  }
  state.counters["qubits"] = n;
  state.counters["gates"] = static_cast<double>(c.size());
  state.counters["compiled_ops"] = static_cast<double>(program.num_ops());
}

BENCHMARK(BM_CompiledRandomCircuit)
    ->DenseRange(4, 20, 2)
    ->Unit(benchmark::kMillisecond);

void BM_CircuitCompile(benchmark::State& state) {
  // The one-time cost the cache amortizes: lower + fuse, no execution.
  const int n = static_cast<int>(state.range(0));
  Circuit c = RandomDenseCircuit(n, 20, 42);
  for (auto _ : state) {
    CompiledCircuit program = CompiledCircuit::Compile(c);
    benchmark::DoNotOptimize(program);
  }
  state.counters["gates"] = static_cast<double>(c.size());
}

BENCHMARK(BM_CircuitCompile)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);

Circuit ShallowChainCircuit(int num_qubits, int depth, uint64_t seed) {
  // Brick-wall nearest-neighbor layers: entanglement grows with depth, not
  // width — the regime where MPS escapes the exponential wall.
  Rng rng(seed);
  Circuit c(num_qubits);
  for (int layer = 0; layer < depth; ++layer) {
    for (int q = 0; q < num_qubits; ++q) c.RY(q, rng.Uniform(-3.0, 3.0));
    for (int q = layer % 2; q + 1 < num_qubits; q += 2) {
      c.RZZ(q, q + 1, rng.Uniform(-1.0, 1.0));
    }
  }
  return c;
}

void BM_MpsChainCircuit(benchmark::State& state) {
  // The tensor-network contrast series: depth-6 nearest-neighbor circuits
  // at widths far beyond the state-vector simulator's reach; runtime grows
  // ~linearly in n at fixed depth instead of 2^n.
  const int n = static_cast<int>(state.range(0));
  Circuit c = ShallowChainCircuit(n, 6, 42);
  MpsSimulator sim({/*max_bond=*/32, 1e-12});
  double max_bond = 0.0, truncation = 0.0;
  for (auto _ : state) {
    auto result = sim.Run(c);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    max_bond = result.value().MaxBondDimension();
    truncation = result.value().truncation_weight();
  }
  state.counters["qubits"] = n;
  state.counters["max_bond"] = max_bond;
  state.counters["truncation_weight"] = truncation;
}

BENCHMARK(BM_MpsChainCircuit)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(96)
    ->Unit(benchmark::kMillisecond);

void BM_SingleQubitGateKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector psi(n);
  const Matrix h = GateMatrix(GateType::kH, {});
  for (auto _ : state) {
    psi.Apply1Q(0, h);
    benchmark::ClobberMemory();
  }
  state.counters["qubits"] = n;
  state.counters["amps_per_s"] = benchmark::Counter(
      static_cast<double>(uint64_t{1} << n),
      benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_SingleQubitGateKernel)->DenseRange(10, 20, 2);

void BM_TwoQubitGateKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector psi(n);
  const Matrix rxx = GateMatrix(GateType::kRXX, {0.3});
  for (auto _ : state) {
    psi.Apply2Q(0, n - 1, rxx);
    benchmark::ClobberMemory();
  }
  state.counters["qubits"] = n;
  state.counters["amps_per_s"] = benchmark::Counter(
      static_cast<double>(uint64_t{1} << n),
      benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_TwoQubitGateKernel)->DenseRange(10, 20, 2);

void BM_DiagonalGateKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector psi(n);
  for (auto _ : state) {
    psi.ApplyDiagonal1Q(0, Complex(1, 0), Complex(0, 1));
    benchmark::ClobberMemory();
  }
  state.counters["qubits"] = n;
  state.counters["amps_per_s"] = benchmark::Counter(
      static_cast<double>(uint64_t{1} << n),
      benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_DiagonalGateKernel)->DenseRange(10, 20, 2);

void BM_ControlledGateKernel(benchmark::State& state) {
  // Control above target: the AVX2 per-run control test + vectorized pair
  // update path (the CX layout the brick circuits use).
  const int n = static_cast<int>(state.range(0));
  StateVector psi(n);
  for (auto _ : state) {
    psi.ApplyControlled1Q(0, 2, Complex(0, 0), Complex(1, 0), Complex(1, 0),
                          Complex(0, 0));
    benchmark::ClobberMemory();
  }
  state.counters["qubits"] = n;
  state.counters["amps_per_s"] = benchmark::Counter(
      static_cast<double>(uint64_t{1} << (n - 1)),
      benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_ControlledGateKernel)->DenseRange(10, 20, 2);

void BM_GateKernelForcedScalar(benchmark::State& state) {
  // The same dense 1Q sweep as BM_SingleQubitGateKernel but pinned to the
  // scalar kernels; the ratio against it is the SIMD dispatch gain.
  const int n = static_cast<int>(state.range(0));
  if (!simd::SetActiveSimdLevel(simd::SimdLevel::kScalar)) {
    state.SkipWithError("cannot force scalar dispatch");
    return;
  }
  StateVector psi(n);
  const Matrix h = GateMatrix(GateType::kH, {});
  for (auto _ : state) {
    psi.Apply1Q(0, h);
    benchmark::ClobberMemory();
  }
  simd::ResetSimdLevel();
  state.counters["qubits"] = n;
  state.counters["amps_per_s"] = benchmark::Counter(
      static_cast<double>(uint64_t{1} << n),
      benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_GateKernelForcedScalar)->DenseRange(10, 20, 2);

void BM_ProbabilityReduction(benchmark::State& state) {
  // ProbabilityOfOne = the masked norm² reduction (4-lane protocol).
  const int n = static_cast<int>(state.range(0));
  StateVector psi(n);
  const Matrix h = GateMatrix(GateType::kH, {});
  for (int q = 0; q < n; ++q) psi.Apply1Q(q, h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(psi.ProbabilityOfOne(1));
  }
  state.counters["qubits"] = n;
  state.counters["amps_per_s"] = benchmark::Counter(
      static_cast<double>(uint64_t{1} << n),
      benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_ProbabilityReduction)->DenseRange(10, 20, 2);

void BM_MeasureQubit(benchmark::State& state) {
  // Fused collapse + kept-norm pass followed by the renormalizing divide.
  const int n = static_cast<int>(state.range(0));
  const Matrix h = GateMatrix(GateType::kH, {});
  Rng rng(17);
  for (auto _ : state) {
    state.PauseTiming();
    StateVector psi(n);
    for (int q = 0; q < n; ++q) psi.Apply1Q(q, h);
    state.ResumeTiming();
    benchmark::DoNotOptimize(psi.MeasureQubit(1, rng));
  }
  state.counters["qubits"] = n;
}

BENCHMARK(BM_MeasureQubit)->DenseRange(10, 18, 4)->Unit(benchmark::kMicrosecond);

void BM_SampleOnce(benchmark::State& state) {
  // CDF build + binary-search draw (was an O(2^n) scan per draw).
  const int n = static_cast<int>(state.range(0));
  StateVector psi(n);
  const Matrix h = GateMatrix(GateType::kH, {});
  for (int q = 0; q < n; ++q) psi.Apply1Q(q, h);
  Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(psi.SampleOnce(rng));
  }
  state.counters["qubits"] = n;
}

BENCHMARK(BM_SampleOnce)->DenseRange(10, 18, 4)->Unit(benchmark::kMicrosecond);

void BM_RunBatch(benchmark::State& state) {
  // Batched circuit execution across the shared ThreadPool (the Gram-matrix
  // and gradient fan-out path). Compare against batch_size sequential Run
  // calls; set QDB_THREADS to vary the pool width.
  const int n = 12;
  const int batch_size = static_cast<int>(state.range(0));
  std::vector<Circuit> circuits;
  circuits.reserve(batch_size);
  for (int k = 0; k < batch_size; ++k) {
    circuits.push_back(RandomDenseCircuit(n, 10, 100 + k));
  }
  StateVectorSimulator sim;
  for (auto _ : state) {
    auto result = sim.RunBatch(circuits);
    benchmark::DoNotOptimize(result);
  }
  state.counters["batch_size"] = batch_size;
  state.counters["circuits_per_s"] = benchmark::Counter(
      static_cast<double>(batch_size),
      benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_RunBatch)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Unit(
    benchmark::kMillisecond);

void BM_PauliExpectation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  StateVector psi(n);
  const Matrix h = GateMatrix(GateType::kH, {});
  for (int q = 0; q < n; ++q) psi.Apply1Q(q, h);
  PauliString pauli(n);
  for (int q = 0; q < n; q += 2) pauli.set_op(q, PauliOp::kZ);
  for (int q = 1; q < n; q += 2) pauli.set_op(q, PauliOp::kX);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Expectation(psi, pauli));
  }
  state.counters["qubits"] = n;
}

BENCHMARK(BM_PauliExpectation)->DenseRange(10, 20, 2);

/// The 16-qubit p=1 QAOA instance of a seeded 4-relation clique join-order
/// QUBO: 16 Z fields and 120 ZZ couplings, the dbopt_qaoa workload's shape.
Qaoa JoinOrderQaoa16() {
  Rng rng(1);
  const JoinQueryGraph graph =
      RandomQuery(QueryShape::kClique, 4, rng).ValueOrDie();
  return Qaoa(JoinOrderQubo::Create(graph).ValueOrDie().qubo().ToIsing(), 1);
}

// ⟨ψ|H_C|ψ⟩ of the 16-qubit join-order Ising sum on its QAOA state. Arg 0
// sums one single-string sweep per term (the reference the batched path
// replaced); arg 1 is Expectation(PauliSum): one Walsh-batched sweep.
void BM_IsingExpectation16(benchmark::State& state) {
  const Qaoa qaoa = JoinOrderQaoa16();
  const PauliSum h = qaoa.cost().ToPauliSum();
  StateVectorSimulator sim;
  const StateVector psi = sim.Run(qaoa.circuit(), {0.3, 0.4}).ValueOrDie();
  const bool batched = state.range(0) != 0;
  for (auto _ : state) {
    double e = 0.0;
    if (batched) {
      e = Expectation(psi, h);
    } else {
      for (const PauliTerm& t : h.terms()) {
        e += t.coefficient * Expectation(psi, t.pauli);
      }
    }
    benchmark::DoNotOptimize(e);
  }
  state.counters["terms"] = static_cast<double>(h.size());
}

BENCHMARK(BM_IsingExpectation16)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// One Qaoa::Energy of the same instance on a pool of `lanes` lanes: compiled
// replay (H layer, one fused diagonal run, RX layer) plus the batched
// expectation.
void BM_QaoaEnergy16(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  const int default_lanes = ThreadPool::Global().size();
  ThreadPool::SetGlobalThreads(lanes);
  const Qaoa qaoa = JoinOrderQaoa16();
  const DVector params = {0.3, 0.4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(qaoa.Energy(params).ValueOrDie());
  }
  ThreadPool::SetGlobalThreads(default_lanes);
  const CompiledCircuit program = CompiledCircuit::Compile(qaoa.circuit());
  state.counters["gates"] = static_cast<double>(qaoa.circuit().size());
  state.counters["compiled_ops"] = static_cast<double>(program.num_ops());
  state.counters["lanes"] = lanes;
}

BENCHMARK(BM_QaoaEnergy16)
    ->ArgName("lanes")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// Where BM_QaoaEnergy16's time goes. Stage s resets one reused state to
// |0…0⟩ and replays the first s parts of the energy on `lanes` lanes:
// 0 = the reset alone, 1 = plus the H layer, 2 = plus the cost layer,
// 3 = plus the RX mixer, 4 = plus the expectation. Each part's cost is the
// difference of consecutive stages. (Qaoa::Energy allocates a fresh state
// instead of resetting one; BM_QaoaEnergy16 includes that.)
void BM_QaoaEnergyStages(benchmark::State& state) {
  const int stage = static_cast<int>(state.range(0));
  const int lanes = static_cast<int>(state.range(1));
  const int default_lanes = ThreadPool::Global().size();
  ThreadPool::SetGlobalThreads(lanes);
  const Qaoa qaoa = JoinOrderQaoa16();
  const Circuit& full = qaoa.circuit();
  const int n = full.num_qubits();
  // The circuit is n H gates, the cost gates, then n RX gates.
  const size_t stage_gates[4] = {0, static_cast<size_t>(n), full.size() - n,
                                 full.size()};
  Circuit prefix(n);
  for (size_t i = 0; i < stage_gates[std::min(stage, 3)]; ++i) {
    prefix.Append(full.gates()[i]);
  }
  const CompiledCircuit program = CompiledCircuit::Compile(prefix);
  const PreparedObservable observable(qaoa.cost().ToPauliSum());
  const DVector params = {0.3, 0.4};
  StateVector psi(n);
  for (auto _ : state) {
    std::fill(psi.reals(), psi.reals() + psi.dim(), 0.0);
    std::fill(psi.imags(), psi.imags() + psi.dim(), 0.0);
    psi.reals()[0] = 1.0;
    if (stage > 0) benchmark::DoNotOptimize(program.Execute(psi, params).ok());
    if (stage == 4) benchmark::DoNotOptimize(observable.Expectation(psi));
    benchmark::ClobberMemory();
  }
  ThreadPool::SetGlobalThreads(default_lanes);
  state.counters["compiled_ops"] = static_cast<double>(program.num_ops());
}

BENCHMARK(BM_QaoaEnergyStages)
    ->ArgNames({"stage", "lanes"})
    ->ArgsProduct({{0, 1, 2, 3, 4}, {1, 2, 4}})
    ->Repetitions(5)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

// The sweep behind kReplayTileBits (sim/compiled_circuit.h). One compiled
// replay on `qubits` qubits and `lanes` lanes with tiles of 2^tile_bits
// amplitudes; tile_bits = 0 replays op at a time (no tiles). Program 0 is a
// p=1 QAOA energy circuit on a dense random Ising model (H layer, one
// diagonal run, RX layer); program 1 is the depth-20 random dense circuit of
// BM_CompiledRandomCircuit. Results are bit-identical at every tile size, so
// the fastest tile at each width and lane count is the one to pick.
Circuit DenseQaoaCircuit(int n) {
  Rng rng(static_cast<uint64_t>(n));
  Circuit c(n);
  for (int q = 0; q < n; ++q) c.H(q);
  for (int q = 0; q < n; ++q) {
    c.RZ(q, ParamExpr::Affine(0, rng.Uniform(-2.0, 2.0), 0.0));
  }
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      c.RZZ(a, b, ParamExpr::Affine(0, rng.Uniform(-2.0, 2.0), 0.0));
    }
  }
  for (int q = 0; q < n; ++q) c.RX(q, ParamExpr::Affine(1, 2.0, 0.0));
  return c;
}

void BM_ReplayTileBits(benchmark::State& state) {
  const bool qaoa = state.range(0) == 0;
  const int n = static_cast<int>(state.range(1));
  const int tile_bits =
      state.range(2) == 0 ? n : static_cast<int>(state.range(2));
  const int lanes = static_cast<int>(state.range(3));
  const int default_lanes = ThreadPool::Global().size();
  ThreadPool::SetGlobalThreads(lanes);
  const CompiledCircuit program = CompiledCircuit::Compile(
      qaoa ? DenseQaoaCircuit(n) : RandomDenseCircuit(n, 20, 42));
  const DVector params = {0.3, 0.4};
  for (auto _ : state) {
    StateVector psi(n);
    benchmark::DoNotOptimize(
        program.ExecuteWithTileBits(psi, params, tile_bits).ok());
    benchmark::ClobberMemory();
  }
  ThreadPool::SetGlobalThreads(default_lanes);
  state.counters["compiled_ops"] = static_cast<double>(program.num_ops());
}

BENCHMARK(BM_ReplayTileBits)
    ->ArgNames({"program", "qubits", "tile_bits", "lanes"})
    ->Apply([](benchmark::internal::Benchmark* b) {
      for (int program : {0, 1}) {
        for (int n = 14; n <= 20; ++n) {
          for (int tile_bits : {0, 11, 12, 13, 14, 15, 16}) {
            if (tile_bits >= n) continue;  // The same as no tiles.
            for (int lanes : {1, 2, 4}) b->Args({program, n, tile_bits, lanes});
          }
        }
      }
    })
    ->MinTime(0.1)
    ->Repetitions(3)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

// Compiled replay of ZZFeatureMap(x, reps=2) on `features` qubits, the
// encoding of served and trained ZZ models. After diagonal folding each rep
// leaves one diagonal op per qubit pair, so the width decides the side of
// kMinDiagonalRunOps a program lands on: up to 8 features the P/RZZ block
// stays per-gate, from 9 on it is one kDiagonalRun (`diagonal_runs`).
void BM_ZZFeatureMapReplay(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DVector x(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) x[static_cast<size_t>(i)] = 0.3 + 0.2 * i;
  const CompiledCircuit program = CompiledCircuit::Compile(ZZFeatureMap(x, 2));
  for (auto _ : state) {
    StateVector psi(n);
    benchmark::DoNotOptimize(program.Execute(psi, {}).ok());
  }
  state.counters["compiled_ops"] = static_cast<double>(program.num_ops());
  state.counters["diagonal_runs"] =
      static_cast<double>(program.stats().diagonal_runs);
}

BENCHMARK(BM_ZZFeatureMapReplay)
    ->DenseRange(6, 12)
    ->Unit(benchmark::kMicrosecond);

// The crossover that sets kMinDiagonalRunOps. On `qubits` qubits and a pool
// of `lanes` lanes, `length` RZZ gates on seeded qubit pairs are applied
// either as one diagonal sweep per gate (fused = 0, what replay issues for a
// run below the threshold) or as one Walsh phase sweep over their expansion
// (fused = 1, a kDiagonalRun). The per-gate cost grows with the length; the
// fused cost barely does (one table term per gate per block, then one
// cos/sin per amplitude), so the threshold at a width is the shortest
// length at which the fused sweep wins. Ten interleaved-order repetitions
// per case; compare the medians.
void BM_DiagonalRunLength(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int length = static_cast<int>(state.range(1));
  const bool fused = state.range(2) != 0;
  const int lanes = static_cast<int>(state.range(3));
  const int default_lanes = ThreadPool::Global().size();
  ThreadPool::SetGlobalThreads(lanes);
  Rng rng(5);
  std::vector<std::pair<int, int>> pairs;
  std::vector<Matrix> gates;
  std::vector<WalshTerm> phase;
  for (int k = 0; k < length; ++k) {
    const uint64_t width = static_cast<uint64_t>(n);
    const int a = static_cast<int>(rng.UniformInt(width));
    const int b = (a + 1 + static_cast<int>(rng.UniformInt(width - 1))) % n;
    const double theta = rng.Uniform(-1.0, 1.0);
    pairs.emplace_back(a, b);
    gates.push_back(GateMatrix(GateType::kRZZ, {theta}));
    // RZZ(θ) = e^{−iθ/2 · Z_a Z_b}: one term on the pair's mask.
    const uint64_t mask =
        (uint64_t{1} << (n - 1 - a)) | (uint64_t{1} << (n - 1 - b));
    phase.push_back(WalshTerm{mask, -theta / 2});
  }
  StateVector psi(n);
  const Matrix h = GateMatrix(GateType::kH, {});
  for (int q = 0; q < n; ++q) psi.Apply1Q(q, h);
  for (auto _ : state) {
    if (fused) {
      psi.ApplyWalshPhase(phase);
    } else {
      for (int k = 0; k < length; ++k) {
        const Matrix& u = gates[static_cast<size_t>(k)];
        psi.ApplyDiagonal2Q(pairs[k].first, pairs[k].second, u(0, 0), u(1, 1),
                            u(2, 2), u(3, 3));
      }
    }
    benchmark::ClobberMemory();
  }
  ThreadPool::SetGlobalThreads(default_lanes);
  state.counters["qubits"] = n;
  state.counters["gates"] = length;
  state.counters["lanes"] = lanes;
}

BENCHMARK(BM_DiagonalRunLength)
    ->ArgNames({"qubits", "gates", "fused", "lanes"})
    ->ArgsProduct({{4, 8, 12, 14, 16, 20},
                   {8, 16, 24, 32, 48, 64, 128},
                   {0, 1},
                   {1, 4}})
    ->MinTime(0.05)
    ->Repetitions(10)
    ->ReportAggregatesOnly(true)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace qdb

BENCHMARK_MAIN();
