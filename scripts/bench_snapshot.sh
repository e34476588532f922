#!/usr/bin/env bash
# Benchmark snapshot: runs the simulator-stack benchmarks that exercise the
# ThreadPool (E1 simulator, E3 quantum kernel, E4 gradients) plus the E18
# inference-serving and E19 observability-overhead suites, and writes one
# JSON file per suite at the repo root, for before/after comparison across
# PRs and QDB_THREADS settings:
#
#   ./scripts/bench_snapshot.sh                 # default pool width
#   QDB_THREADS=1 ./scripts/bench_snapshot.sh   # serial baseline
#   ./scripts/bench_snapshot.sh serve vqc       # only the named suites
#
# Output: BENCH_simulator.json, BENCH_qkernel.json, BENCH_gradients.json,
#         BENCH_serve.json, BENCH_obs.json, BENCH_serve_scale.json,
#         BENCH_store.json (E21 storage tier). Named suites may also be any
#         other bench binary, e.g. vqc (E2) or barren_plateau (E5), which
#         write BENCH_vqc.json and BENCH_barren_plateau.json.
#
# Snapshots must come from a Release (-O2, no sanitizers, NDEBUG) build —
# debug-build numbers are not comparable across PRs. The script refuses to
# record anything else; set QDB_BENCH_ALLOW_DEBUG=1 to override for local
# experiments (the output is then tagged so it cannot be mistaken for a
# trustworthy snapshot).
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . -DQDB_BUILD_BENCHMARKS=ON -DCMAKE_BUILD_TYPE=Release \
  >/dev/null
build_type=$(grep -E '^CMAKE_BUILD_TYPE:' build/CMakeCache.txt |
  cut -d= -f2)
if [[ "${build_type}" != "Release" ]]; then
  if [[ "${QDB_BENCH_ALLOW_DEBUG:-0}" != "1" ]]; then
    echo "ERROR: build/ is configured as '${build_type:-unset}', not Release." >&2
    echo "Benchmark snapshots from non-Release builds are not comparable;" >&2
    echo "reconfigure with -DCMAKE_BUILD_TYPE=Release (or set" >&2
    echo "QDB_BENCH_ALLOW_DEBUG=1 to record a tagged, untrusted snapshot)." >&2
    exit 1
  fi
  echo "WARNING: recording from a '${build_type}' build; snapshots will be" >&2
  echo "tagged UNTRUSTED-${build_type} and must not be checked in." >&2
  tag="UNTRUSTED-${build_type}-"
else
  tag=""
fi

suites=("$@")
if [[ ${#suites[@]} -eq 0 ]]; then
  suites=(simulator qkernel gradients serve obs serve_scale store)
fi
targets=()
for suite in "${suites[@]}"; do targets+=(--target "bench_${suite}"); done
cmake --build build -j "${targets[@]}"

for suite in "${suites[@]}"; do
  out="${tag}BENCH_${suite}.json"
  echo "== bench_${suite} -> ${out} =="
  "./build/bench/bench_${suite}" \
    --benchmark_format=json \
    --benchmark_out="${out}" \
    --benchmark_out_format=json
  # google-benchmark's context.library_build_type describes how the
  # *installed benchmark library* was compiled, not this repo. Stamp the
  # verified qdb build type and the host's core count so provenance
  # survives in the snapshot itself.
  python3 - "${out}" "${build_type}" << 'PYEOF'
import json, os, sys
path, build_type = sys.argv[1], sys.argv[2]
with open(path) as f:
    doc = json.load(f)
doc.setdefault("context", {})["qdb_build_type"] = build_type
doc["context"]["nproc"] = os.cpu_count()
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PYEOF
done

echo
echo "snapshot written:$(printf " ${tag}BENCH_%s.json" "${suites[@]}")"
