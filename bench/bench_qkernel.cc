// E3 — Quantum kernel methods vs classical kernels.
//
// Regenerates the quantum-kernel table: held-out accuracy and
// kernel-target alignment of the fidelity kernel (angle and ZZ feature
// maps) against a classical RBF SVM, on circles and XOR. Expected shape:
// the ZZ feature-map kernel is competitive with RBF on these sets (neither
// dominates — the tutorial's point is feasibility, not supremacy), and
// higher kernel alignment tracks higher test accuracy.

#include <benchmark/benchmark.h>

#include <cmath>

#include "classical/metrics.h"
#include "classical/svm.h"
#include "common/thread_pool.h"
#include "encoding/encodings.h"
#include "kernel/alignment.h"
#include "kernel/quantum_kernel.h"
#include "linalg/vector_ops.h"
#include "sim/compiled_circuit.h"
#include "sim/statevector_simulator.h"

namespace qdb {
namespace {

enum DatasetKind { kCircles = 0, kXor = 1 };
enum KernelKind { kAngle = 0, kZZ = 1, kClassicalRbf = 2 };

const char* Name(int dataset, int kernel) {
  static std::string label;
  label = std::string(dataset == kCircles ? "circles" : "xor") + "/" +
          (kernel == kAngle ? "angle" : kernel == kZZ ? "zz" : "rbf");
  return label.c_str();
}

struct SplitData {
  Dataset train;
  Dataset test;
};

SplitData PrepareSplit(int kind, uint64_t seed) {
  Rng rng(seed);
  Dataset all = kind == kCircles ? MakeCircles(56, 0.08, 0.5, rng)
                                 : MakeXor(56, 0.15, rng);
  auto [train, test] = TrainTestSplit(all, 0.25, rng);
  MinMaxScale(train, test, 0.0, M_PI);
  MinMaxScale(train, train, 0.0, M_PI);
  return {std::move(train), std::move(test)};
}

void BM_KernelSvm(benchmark::State& state) {
  const int dataset = static_cast<int>(state.range(0));
  const int kernel_kind = static_cast<int>(state.range(1));
  SplitData data = PrepareSplit(dataset, 11);

  double test_acc = 0.0, alignment = 0.0;
  for (auto _ : state) {
    if (kernel_kind == kClassicalRbf) {
      SvmOptions opts;
      opts.kernel = SvmKernel::kRbf;
      opts.gamma = 2.0;
      opts.c = 20.0;
      auto svm = Svm::Train(data.train, opts);
      if (!svm.ok()) {
        state.SkipWithError(svm.status().ToString().c_str());
        return;
      }
      std::vector<int> preds;
      for (const auto& x : data.test.features) {
        preds.push_back(svm.value().Predict(x).ValueOrDie());
      }
      test_acc = Accuracy(data.test.labels, preds);
      alignment = 0.0;  // Reported only for the quantum kernels.
    } else {
      FidelityQuantumKernel kernel = kernel_kind == kAngle
                                         ? MakeAngleKernel()
                                         : MakeZZFeatureMapKernel(2);
      auto gram = kernel.GramMatrix(data.train.features);
      if (!gram.ok()) {
        state.SkipWithError(gram.status().ToString().c_str());
        return;
      }
      alignment =
          CenteredKernelAlignment(gram.value(), data.train.labels).ValueOrDie();
      SvmOptions opts;
      opts.kernel = SvmKernel::kPrecomputed;
      opts.c = 20.0;
      auto svm = Svm::Train(data.train, opts, &gram.value());
      if (!svm.ok()) {
        state.SkipWithError(svm.status().ToString().c_str());
        return;
      }
      auto cross = kernel.CrossMatrix(data.test.features, data.train.features);
      if (!cross.ok()) {
        state.SkipWithError(cross.status().ToString().c_str());
        return;
      }
      std::vector<int> preds;
      for (size_t i = 0; i < data.test.size(); ++i) {
        DVector row(data.train.size());
        for (size_t j = 0; j < data.train.size(); ++j) {
          row[j] = cross.value()(i, j).real();
        }
        preds.push_back(svm.value().PredictFromKernelRow(row));
      }
      test_acc = Accuracy(data.test.labels, preds);
    }
  }
  state.SetLabel(Name(dataset, kernel_kind));
  state.counters["test_acc"] = test_acc;
  state.counters["alignment"] = alignment;
}

BENCHMARK(BM_KernelSvm)
    ->ArgsProduct({{kCircles, kXor}, {kAngle, kZZ, kClassicalRbf}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_GramMatrixCost(benchmark::State& state) {
  // Cost series: Gram-matrix construction time vs training-set size (the
  // O(m²) classical overhead of quantum kernel methods the tutorial warns
  // about).
  const int m = static_cast<int>(state.range(0));
  Rng rng(13);
  Dataset data = MakeCircles(m, 0.08, 0.5, rng);
  MinMaxScale(data, data, 0.0, M_PI);
  FidelityQuantumKernel kernel = MakeZZFeatureMapKernel(2);
  for (auto _ : state) {
    auto gram = kernel.GramMatrix(data.features);
    benchmark::DoNotOptimize(gram);
  }
  state.counters["samples"] = m;
  state.counters["kernel_entries"] = static_cast<double>(m) * m;
}

BENCHMARK(BM_GramMatrixCost)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_GramMatrixCompiledVsInterpreted(benchmark::State& state) {
  // The ZZ Gram fill of FidelityQuantumKernel at 2 and 12 qubits with its
  // encoding circuits streamed gate by gate (mode 0) or compiled and fused
  // privately (mode 1) — the measurement behind the kernel's width rule,
  // kCompileEncodingFromQubits — and through the kernel itself (mode 2),
  // which picks by width and should track the faster side at both. Modes 0
  // and 1 encode and fill the way the kernel does: one task per point, then
  // one task per row. Each data point bakes its features into a distinct
  // circuit that runs once, so compiling wins only where fusion saves more
  // sweeps than the compile costs: not at 2 qubits, but at 12. The name
  // stays so the recorded rows remain comparable across snapshots.
  const int m = 48;
  const int mode = static_cast<int>(state.range(0));
  const int qubits = static_cast<int>(state.range(1));
  Rng rng(13);
  std::vector<DVector> xs(m, DVector(qubits));
  for (DVector& x : xs) {
    for (double& v : x) v = rng.Uniform(0.0, M_PI);
  }
  const FidelityQuantumKernel kernel = MakeZZFeatureMapKernel(2);
  const auto encode = [&](size_t i, CVector& amplitudes) {
    const Circuit circuit = ZZFeatureMap(xs[i], /*reps=*/2);
    StateVector psi(qubits);
    const Status status =
        mode == 0 ? StateVectorSimulator().RunStreamed(circuit, psi)
                  : CompiledCircuit::Compile(circuit).Execute(psi);
    QDB_CHECK(status.ok()) << status.ToString();
    amplitudes = psi.ToAmplitudes();
  };
  for (auto _ : state) {
    if (mode == 2) {
      auto gram = kernel.GramMatrix(xs);
      benchmark::DoNotOptimize(gram);
      continue;
    }
    std::vector<CVector> points(m);
    ThreadPool::Global().RunTasks(m, [&](size_t i) { encode(i, points[i]); });
    Matrix gram(m, m);
    ThreadPool::Global().RunTasks(m, [&](size_t i) {
      gram(i, i) = Complex(1.0, 0.0);
      for (size_t j = i + 1; j < static_cast<size_t>(m); ++j) {
        const double k = Fidelity(points[i], points[j]);
        gram(i, j) = gram(j, i) = Complex(k, 0.0);
      }
    });
    benchmark::DoNotOptimize(gram);
  }
  const char* labels[] = {"streamed", "compiled", "kernel"};
  state.SetLabel(labels[mode]);
  state.counters["samples"] = m;
  state.counters["qubits"] = qubits;
}

BENCHMARK(BM_GramMatrixCompiledVsInterpreted)
    ->ArgsProduct({{0, 1, 2}, {2, 12}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace qdb

BENCHMARK_MAIN();
