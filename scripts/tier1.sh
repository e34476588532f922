#!/usr/bin/env bash
# Tier-1 gate: check that no library header is reached only by tests,
# configure + build + full test suite, then rebuild the
# concurrency-sensitive tests under ThreadSanitizer and run them, run the
# whole suite under UndefinedBehaviorSanitizer and under
# AddressSanitizer, replay the seeded chaos profiles, run the kill-9
# crash-recovery matrix, gate the serving tier's observability overhead,
# and print the tracked src/ line count. Run from the repo root:
#
#   ./scripts/tier1.sh
#
# Build directories: build/ (regular), build-tsan/ (TSan, library + tests
# only), build-ubsan/ (UBSan, library + tests only), build-asan/ (ASan,
# library + tests only). All are incremental across invocations.
#
# On a ctest failure, every test binary leaves a full metrics-registry dump
# (QDB_METRICS_OUT) under build/Testing/metrics/ — the path is printed so
# the post-mortem starts from the counters, not from a rerun.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: no test-only library headers =="
./scripts/check_test_only_headers.sh

echo
echo "== tier 1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
metrics_dir="$(pwd)/build/Testing/metrics"
rm -rf "${metrics_dir}" && mkdir -p "${metrics_dir}"
if ! (cd build &&
  QDB_METRICS_OUT="${metrics_dir}/" ctest --output-on-failure -j "$(nproc)"); then
  echo >&2
  echo "ctest FAILED — per-process metrics dumps for the post-mortem:" >&2
  echo "  ${metrics_dir}/metrics.<pid>.json" >&2
  ls -l "${metrics_dir}" >&2 || true
  exit 1
fi

echo
echo "== tier 1: concurrency tests under ThreadSanitizer =="
cmake -B build-tsan -S . \
  -DQDB_SANITIZE=thread \
  -DQDB_BUILD_BENCHMARKS=OFF \
  -DQDB_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j --target obs_test --target obs_labels_test \
  --target slo_test --target thread_pool_test \
  --target sim_parallel_test --target simd_equivalence_test \
  --target compiled_circuit_test --target kernel_test \
  --target serve_test --target serve_scale_test --target fault_test \
  --target store_test --target journal_test
./build-tsan/tests/obs_test
./build-tsan/tests/obs_labels_test
./build-tsan/tests/slo_test
./build-tsan/tests/thread_pool_test
QDB_THREADS=4 ./build-tsan/tests/sim_parallel_test
QDB_THREADS=4 ./build-tsan/tests/simd_equivalence_test
QDB_THREADS=4 ./build-tsan/tests/compiled_circuit_test
QDB_THREADS=4 ./build-tsan/tests/kernel_test
QDB_THREADS=4 ./build-tsan/tests/serve_test
QDB_THREADS=4 ./build-tsan/tests/serve_scale_test
QDB_THREADS=4 ./build-tsan/tests/fault_test
QDB_THREADS=4 ./build-tsan/tests/store_test
QDB_THREADS=4 ./build-tsan/tests/journal_test

echo
echo "== tier 1: whole suite under UndefinedBehaviorSanitizer =="
# Misaligned loads, shift and offset overflow, and enum smuggling in any
# suite: the journal and artifact parsers read raw bytes off disk, and
# the kernels and Walsh sweeps index tables by shifted masks. The SIMD
# and parallel-kernel suites rerun at four lanes so the chunked paths run
# too.
cmake -B build-ubsan -S . \
  -DQDB_SANITIZE=undefined \
  -DQDB_BUILD_BENCHMARKS=OFF \
  -DQDB_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-ubsan -j
(cd build-ubsan &&
  UBSAN_OPTIONS=halt_on_error=1 ctest --output-on-failure -j "$(nproc)")
UBSAN_OPTIONS=halt_on_error=1 QDB_THREADS=4 ./build-ubsan/tests/simd_equivalence_test
UBSAN_OPTIONS=halt_on_error=1 QDB_THREADS=4 ./build-ubsan/tests/sim_parallel_test

echo
echo "== tier 1: whole suite under AddressSanitizer =="
# Out-of-bounds and use-after-free in any kernel, parser or server path.
cmake -B build-asan -S . \
  -DQDB_SANITIZE=address \
  -DQDB_BUILD_BENCHMARKS=OFF \
  -DQDB_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j
(cd build-asan && ctest --output-on-failure -j "$(nproc)")

echo
echo "== tier 1: forced-scalar dispatch (QDB_SIMD=0) =="
# The SIMD dispatch contract says amplitudes are bit-identical at every
# level; rerun the kernel-heavy suites with the env override forcing the
# scalar path so the fallback stays exercised on AVX2 machines. The
# serving, VQC and autodiff suites run light-cone programs (servables and
# ExpectationFunction compile to the observable's cone), so they rerun too.
QDB_SIMD=0 ./build/tests/statevector_test
QDB_SIMD=0 ./build/tests/simd_equivalence_test
QDB_SIMD=0 ./build/tests/pauli_test
QDB_SIMD=0 ./build/tests/qaoa_test
QDB_SIMD=0 ./build/tests/compiled_circuit_test
QDB_SIMD=0 QDB_THREADS=4 ./build/tests/sim_parallel_test
QDB_SIMD=0 ./build/tests/serve_test
QDB_SIMD=0 ./build/tests/vqc_test
QDB_SIMD=0 ./build/tests/autodiff_test

echo
echo "== tier 1: seeded chaos profiles =="
./scripts/chaos.sh

echo
echo "== tier 1: crash recovery (kill -9 matrix) =="
./scripts/crash_recovery.sh

echo
echo "== tier 1: observability overhead gate =="
# The serving smoke workload (bench_obs E19) runs with tracing + labeled
# metrics off and on, five repetitions each in random interleaving (one
# pair flipped between -27% and +38% on a shared host), and the median
# traced req_per_s must stay within 10% of the median untraced baseline. This is the acceptance bar for request-scoped
# tracing: observability that costs double-digit throughput is a regression,
# not a feature. Uses the regular (non-TSan) build; a Debug build still
# catches gross regressions since both modes share the build type.
cmake -B build -S . -DQDB_BUILD_BENCHMARKS=ON >/dev/null
cmake --build build -j --target bench_obs
overhead_json="$(pwd)/build/Testing/bench_obs_gate.json"
./build/bench/bench_obs \
  --benchmark_filter='BM_ServingWithObservability' \
  --benchmark_repetitions=5 \
  --benchmark_enable_random_interleaving=true \
  --benchmark_format=json \
  --benchmark_out="${overhead_json}" \
  --benchmark_out_format=json
python3 - "${overhead_json}" << 'PYEOF'
import json, statistics, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
samples = {"obs_off": [], "obs_on": []}
for bench in doc.get("benchmarks", []):
    if bench.get("run_type") == "aggregate":
        continue
    label = bench.get("label")
    rate = bench.get("req_per_s")
    if label in samples and isinstance(rate, (int, float)):
        samples[label].append(float(rate))
if not all(samples.values()):
    sys.exit("overhead gate: bench_obs did not report both obs_off and "
             "obs_on req_per_s")
rates = {label: statistics.median(v) for label, v in samples.items()}
print("repetitions: " + "  ".join(
    f"{label}={len(v)}" for label, v in samples.items()))
overhead = 1.0 - rates["obs_on"] / rates["obs_off"]
print(f"median serving throughput: obs_off={rates['obs_off']:.0f} req/s  "
      f"obs_on={rates['obs_on']:.0f} req/s  overhead={overhead:+.1%}")
if overhead > 0.10:
    sys.exit(f"overhead gate FAILED: tracing + labeled metrics cost "
             f"{overhead:.1%} throughput (budget: 10%)")
print("overhead gate PASS (budget: 10%)")
PYEOF

echo
echo "== tier 1: tracked src/ line count =="
# The round tracks src/'s size like a benchmark; every run prints it the
# same way so each change quotes one comparable number.
echo "src/ .cc+.h lines: $(find src -name '*.cc' -o -name '*.h' | sort |
  xargs cat | wc -l)"

echo
echo "tier 1 PASS"
