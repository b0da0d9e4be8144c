#!/usr/bin/env bash
# Full hygiene check: build + test the default preset and run the CLI
# smokes, then the test suite again under ASan+UBSan, then (optionally,
# CHECK_WERROR=1) verify the tree is warning-clean with -Werror. CI
# (.github/workflows/ci.yml) runs the same presets, and the same smokes
# and bench gates through scripts/smoke.sh. Needs jq.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

if [[ "${CHECK_SKIP_DEFAULT:-0}" != "1" ]]; then
  cmake --preset default
  cmake --build --preset default -j "$jobs"
  ctest --preset default -j "$jobs"

  # Kill-and-resume, the serve daemon and a sample trace through the CLI
  # (scripts/smoke.sh has the steps and their gates).
  scripts/smoke.sh build/smoke cli
fi

# The full suite under ASan+UBSan, plus libstdc++'s _GLIBCXX_ASSERTIONS
# bounds checks (RAPAR_SANITIZE in CMakeLists.txt): an out-of-range []
# on a std::vector — the engine's binding frame, its dispatch buckets,
# its duplicate-table slots and index chains — aborts even where ASan
# sees a valid address. The suite includes the engine differentials
# (IndexDifferential, DatalogDifferential: the indexed join core, which
# joins in body order like the naive scan, against that scan and a
# naive reference), the
# TMAI soundness differentials (small-set, relational and auto domains
# vs the exact Datalog backend, plus certificate checking on the
# catalog) — the pair-set/value-set indexing they exercise is exactly
# what the sanitizers watch — and the makeP encoder/optimizer parity
# suite (MakePParity: cached env prefixes, programs moved into dlopt,
# at most two body atoms per rule).
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$jobs"
ctest --preset asan-ubsan -j "$jobs"

# Optional (CHECK_BENCH=1): reproduce the bench_backends tables (backend
# comparison, observability overhead, TMAI domains) and the serve replay
# bench, and gate them the way CI does (scripts/smoke.sh has the gates).
if [[ "${CHECK_BENCH:-0}" == "1" ]]; then
  cmake --build --preset default -j "$jobs" --target bench_backends bench_serve
  scripts/smoke.sh build/smoke tables
fi

if [[ "${CHECK_WERROR:-0}" == "1" ]]; then
  cmake --preset werror
  cmake --build --preset werror -j "$jobs"
fi

echo "check.sh: all green"
