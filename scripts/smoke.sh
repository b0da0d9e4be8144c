#!/usr/bin/env bash
# The end-to-end smokes and bench gates, one copy of each step. CI's
# bench-tables job and scripts/check.sh both run them through here.
#
#   scripts/smoke.sh OUT_DIR STAGE...
#
# Runs each STAGE against the default preset's build tree (build/) and
# writes what it produces into OUT_DIR:
#
#   cli     kill-and-resume through a checkpoint, the serve daemon (miss,
#           error envelope, hit, and a hit on a TMAI certificate entry), a
#           flag error's JSON envelope and a sample trace
#           (sample.trace.json). Needs rapar_cli.
#   tables  the bench_backends reproduction tables (bench-tables.txt,
#           BENCH_obs.json, BENCH_tmai_domains.json) and the serve replay
#           bench (BENCH_serve.json), each with its gate. Needs
#           bench_backends and bench_serve.
#
# Needs jq. Every step fails the script when its gate does not hold.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: scripts/smoke.sh OUT_DIR cli|tables..." >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
cd "$1"
shift
cli="$root/build/examples/rapar_cli"
progs="$root/examples/programs"

smoke_cli() {
  # Kill-and-resume: a scan-limited run writes a checkpoint and stops with
  # exit 0 or 2, the resumed run reaches the full verdict and echoes the
  # resume offset, and resuming another system from the same checkpoint
  # is a usage error (exit 3, the JSON error envelope), not a scan of that
  # system from guess 5.
  local dekker=(--env "$progs/dekker_env.rap" --dis "$progs/dekker.rap")
  local status=0
  "$cli" verify --backend datalog --scan-limit=5 \
    --checkpoint=dekker.cp.json "${dekker[@]}" > /dev/null || status=$?
  [[ $status -eq 0 || $status -eq 2 ]]
  "$cli" verify --backend datalog --resume=dekker.cp.json --format=json \
    "${dekker[@]}" > resume_smoke.json
  jq -e '.verdict == "safe"
         and .checkpoint.resume_offset == 5' resume_smoke.json
  status=0
  "$cli" verify --backend datalog --resume=dekker.cp.json --format=json \
    --env "$progs/producer.rap" --dis "$progs/consumer.rap" \
    > foreign_smoke.json || status=$?
  [[ $status -eq 3 ]]
  jq -e '.command == "verify" and .exit_code == 3' foreign_smoke.json

  # Serve: five lines through the daemon, answered in order. The first
  # request is a miss; the malformed line answers an error envelope
  # without killing the stream; the repeat answers from the verdict cache
  # with cache.hits == 1 and the first response's verdict. The TMAI
  # request proves the pair safe with a certificate, and its repeat is a
  # hit that parses nothing and replays the certificate.
  local files='"env_file":"'"$progs"'/mp_writer.rap","dis_files":["'"$progs"'/mp_reader_stale.rap"]'
  local req='{"id":1,"command":"verify",'"$files"'}'
  local tmai='{"id":2,"command":"verify",'"$files"',"options":{"backend":"tmai"}}'
  local bad='{"command":"nope"}'
  printf '%s\n' "$req" "$bad" "$req" "$tmai" "$tmai" \
    | "$cli" serve > serve_smoke.jsonl
  [[ "$(wc -l < serve_smoke.jsonl)" == "5" ]]
  jq -e -s '.[0].cache == "miss"
            and .[1].command == "error"
            and .[2].cache == "hit"
            and .[2].telemetry["cache.hits"] == 1
            and .[2].verdict == .[0].verdict
            and .[3].cache == "miss"
            and .[3].telemetry["tmai.certificate"] == 1
            and .[4].cache == "hit"
            and .[4].telemetry["phase.parse_ms"] == 0
            and .[4].telemetry["tmai.certificate"] == 1
            and .[4].certificate == .[3].certificate' serve_smoke.jsonl

  # A flag error under --format=json answers the JSON error envelope on
  # stdout, even when --format=json comes after the bad flag: here a
  # removed TMAI flag (TMAI runs one fixed configuration). Exit 3.
  status=0
  "$cli" verify --backend tmai --tmai-domain=relational --format=json \
    --env "$progs/mp_writer.rap" > flag_error_smoke.json 2> /dev/null \
    || status=$?
  [[ $status -eq 3 ]]
  jq -e '.command == "verify" and .exit_code == 3
         and .error == "unknown flag: --tmai-domain"' flag_error_smoke.json

  # A traced verify of the TQBF corpus, the deepest span nesting (parse /
  # prepass / dlopt passes / per-guess solves). Exit 1 is the expected
  # UNSAFE verdict, not a failure; the gate rejects a malformed or empty
  # trace.
  status=0
  "$cli" verify --backend datalog --trace=sample.trace.json \
    --env "$progs/tqbf3_env.rap" > /dev/null || status=$?
  [[ $status -eq 0 || $status -eq 1 ]]
  jq -e '.traceEvents | length > 0' sample.trace.json
}

smoke_tables() {
  # The reproduction tables (backend comparison, observability overhead,
  # TMAI domains); --benchmark_filter=NONE skips the google-benchmark
  # timings. No table may produce diverging results.
  "$root/build/bench/bench_backends" --benchmark_filter=NONE --json \
    | tee bench-tables.txt
  if grep -q MISMATCH bench-tables.txt; then
    echo "smoke.sh: a reproduction table produced diverging results" >&2
    exit 1
  fi
  # Tracing on or off never changes a verdict.
  jq -e '.bench == "obs_ablation"' BENCH_obs.json
  jq -e '[.rows[] | select(.verdict_neutral | not)] | length == 0' \
    BENCH_obs.json
  # The relational must-domain only adds precision, so its catalog proof
  # rate (and auto's) must dominate the small-set domain's, every emitted
  # invariant certificate must pass the independent checker, and no
  # domain may produce an unsound proof (parity).
  jq -e '.bench == "tmai_domains"' BENCH_tmai_domains.json
  jq -e '.totals.proof_rate_relational >= .totals.proof_rate_smallset' \
    BENCH_tmai_domains.json
  jq -e '.totals.proof_rate_auto >= .totals.proof_rate_smallset' \
    BENCH_tmai_domains.json
  jq -e '.totals.certificates_valid == .totals.certificates_total' \
    BENCH_tmai_domains.json
  jq -e '.totals.parity == "OK"' BENCH_tmai_domains.json

  # Catalog replay against the daemon: cache hits must be at least 2x
  # faster than cold sessions, both regimes (cold session, hit by the
  # request as sent) must agree with the one-shot verifier, and the hit
  # regime must answer from the cache.
  "$root/build/bench/bench_serve" --benchmark_filter=NONE \
    --json=BENCH_serve.json | tee bench-serve.txt
  jq -e '.bench == "serve_replay"' BENCH_serve.json
  jq -e '.totals.speedup_hit >= 2' BENCH_serve.json
  jq -e '.totals.parity == "OK"' BENCH_serve.json
}

for stage in "$@"; do
  case "$stage" in
    cli) smoke_cli ;;
    tables) smoke_tables ;;
    *)
      echo "smoke.sh: unknown stage '$stage' (cli or tables)" >&2
      exit 2
      ;;
  esac
done
echo "smoke.sh: $* green"
