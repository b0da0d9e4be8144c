#!/usr/bin/env bash
# Full hygiene check: build + test the default preset, then the test
# suite again under ASan+UBSan, then (optionally, CHECK_WERROR=1) verify
# the tree is warning-clean with -Werror. CI (.github/workflows/ci.yml)
# runs the same presets.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

if [[ "${CHECK_SKIP_DEFAULT:-0}" != "1" ]]; then
  cmake --preset default
  cmake --build --preset default -j "$jobs"
  ctest --preset default -j "$jobs"

  # Kill-and-resume through the CLI: a scan-limited run writes a
  # checkpoint, the resumed run reaches the full verdict and echoes the
  # resume offset, and resuming another system from that checkpoint is a
  # usage error (exit 3), not a scan of that system from guess 5.
  cp_dir="$(mktemp -d)"
  dekker=(--env examples/programs/dekker_env.rap
          --dis examples/programs/dekker.rap)
  ./build/examples/rapar_cli verify --backend datalog --scan-limit=5 \
    --checkpoint="$cp_dir/dekker.cp.json" "${dekker[@]}" > /dev/null \
    || [[ $? -eq 2 ]]
  resumed="$(./build/examples/rapar_cli verify --backend datalog \
    --resume="$cp_dir/dekker.cp.json" --format=json "${dekker[@]}")"
  grep -q '"verdict": "safe"' <<< "$resumed"
  grep -q '"resume_offset": 5' <<< "$resumed"
  status=0
  ./build/examples/rapar_cli verify --backend datalog \
    --resume="$cp_dir/dekker.cp.json" \
    --env examples/programs/producer.rap \
    --dis examples/programs/consumer.rap > /dev/null 2>&1 || status=$?
  [[ $status -eq 3 ]]
  rm -rf "$cp_dir"
fi

# The full suite under ASan+UBSan, plus libstdc++'s _GLIBCXX_ASSERTIONS
# bounds checks (RAPAR_SANITIZE in CMakeLists.txt): an out-of-range []
# on a std::vector — the engine's binding frame, its dispatch buckets,
# its duplicate-table slots and index chains — aborts even where ASan
# sees a valid address. The suite includes the
# TMAI soundness differentials (small-set, relational and auto domains
# vs the exact Datalog backend, plus certificate checking on the
# catalog) — the pair-set/value-set indexing they exercise is exactly
# what the sanitizers watch — and the makeP encoder/optimizer parity
# suite (MakePParity: cached env prefixes, programs moved into dlopt).
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$jobs"
ctest --preset asan-ubsan -j "$jobs"

# Optional (CHECK_BENCH=1): reproduce the bench_backends tables (backend
# comparison, observability overhead, TMAI domains), fail on a MISMATCH
# row, and gate the TMAI domain table the way CI does — relational proof
# rate must dominate small-set, all certificates valid, verdict parity.
# Needs jq.
if [[ "${CHECK_BENCH:-0}" == "1" ]]; then
  cmake --build --preset default -j "$jobs" --target bench_backends
  (cd build && ./bench/bench_backends --json --benchmark_filter=NONE \
    | tee ../BENCH_tables.txt)
  if grep -q MISMATCH BENCH_tables.txt; then
    echo "check.sh: a bench table produced diverging results" >&2
    exit 1
  fi
  jq -e '.totals.proof_rate_relational >= .totals.proof_rate_smallset
         and .totals.certificates_valid == .totals.certificates_total
         and .totals.parity == "OK"' build/BENCH_tmai_domains.json

  # serve-mode smoke: three requests through the daemon (one repeated,
  # one malformed), answered in order: the first is the miss, the
  # malformed line answers an error envelope without killing the stream,
  # and the repeat answers from the verdict cache with cache.hits == 1 and
  # the first response's verdict.
  cmake --build --preset default -j "$jobs" --target rapar_cli bench_serve
  req='{"id":1,"command":"verify","env_file":"examples/programs/mp_writer.rap","dis_files":["examples/programs/mp_reader_stale.rap"]}'
  bad='{"command":"nope"}'
  printf '%s\n' "$req" "$bad" "$req" \
    | ./build/examples/rapar_cli serve > serve_smoke.jsonl
  [[ "$(wc -l < serve_smoke.jsonl)" == "3" ]]
  jq -e -s '.[0].cache == "miss"
            and .[1].command == "error"
            and .[2].cache == "hit"
            and .[2].telemetry["cache.hits"] == 1
            and .[2].verdict == .[0].verdict' serve_smoke.jsonl
  rm -f serve_smoke.jsonl

  # serve replay bench: cache hits must be at least 2x faster than cold
  # sessions across the catalog, with verdict parity in every regime and
  # both hit regimes (request as sent, reformatted) answered from the
  # cache.
  (cd build && ./bench/bench_serve --json --benchmark_filter=NONE)
  jq -e '.totals.speedup_hit >= 2 and .totals.parity == "OK"' \
    build/BENCH_serve.json

fi

if [[ "${CHECK_WERROR:-0}" == "1" ]]; then
  cmake --preset werror
  cmake --build --preset werror -j "$jobs"
fi

echo "check.sh: all green"
