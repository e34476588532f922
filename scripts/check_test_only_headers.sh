#!/usr/bin/env bash
# Fails when a library header is reached only by tests: every src/**/*.h
# must be included by some file in src/, bench/, benchmark/ or examples/
# other than its own .cc. A module that only its own tests include is
# library surface that nothing measures or serves. Run from anywhere:
#
#   ./scripts/check_test_only_headers.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One "<including file> <included path>" line per quoted include outside
# tests/.
includes="$(grep -rHoE '^#include "[^"]+"' src bench benchmark examples \
  --include='*.cc' --include='*.cpp' --include='*.h' |
  sed -E 's/:#include "(.*)"$/ \1/')"

orphans=()
while IFS= read -r header; do
  rel="${header#src/}"
  own="${header%.h}.cc"
  if ! awk -v rel="${rel}" -v own="${own}" \
    '$2 == rel && $1 != own { found = 1 } END { exit !found }' \
    <<< "${includes}"; then
    orphans+=("${rel}")
  fi
done < <(find src -name '*.h' | sort)

if (( ${#orphans[@]} > 0 )); then
  echo "test-only headers: included by nothing outside tests/ but their" \
    "own .cc:" >&2
  printf '  src/%s\n' "${orphans[@]}" >&2
  exit 1
fi
echo "test-only headers: none ($(find src -name '*.h' | wc -l) headers checked)"
