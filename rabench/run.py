#!/usr/bin/env python3
"""Benchmark entry point: builds the drivers, runs one workload, prints metrics.

    python3 rabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The drivers are built from source into
.bench_build/rabench on first use. --trace 0 runs the timed workload and
its oracle and prints the end-to-end metrics; --trace 1 runs the traced
replay and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Every driver process is supervised: when a signal kills it, the request
it was answering counts as failed and a fresh process (fresh session)
resumes at the next request. See rabench/README.md for the workloads.
"""

import argparse
import bisect
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "rabench")
WORKLOADS = ("guess-heavy", "tqbf-eval", "serve-mixed")
SETUP_REPS = 5
SETUP_REFERENCE_SAMPLES = 5  # kSetupReferenceSamples in timed_main.cpp
MAX_RESTARTS = 100  # a driver that keeps dying is a broken build, not data
DEFINITIVE = ("safe", "unsafe")
DETAILS = "details.json"
# Timings are normalized by the machine's speed (README.md, "Machine
# speed"): a request's CPU is scaled by REFERENCE_NS over the median of the
# REFERENCE_WINDOW reference samples (ReferenceNs in timed_main.cpp)
# nearest to it in the request list. REFERENCE_NS is about the median
# reference sample on the 4-vCPU x86 KVM guest the benchmark was calibrated
# on, so the timings read as CPU time on that machine at its usual speed.
REFERENCE_NS = 1150000
REFERENCE_WINDOW = 8


def work_dir(workload, seed, trace):
    """Where one run keeps its records, trace files and details."""
    return os.path.join(OUT, "runs", "%s-s%d-t%d" % (workload, seed, trace))


def log(msg):
    print("rabench: " + msg, file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(2)


def build(target):
    """Configures once and builds one driver target (serialized by a lock)."""
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "rabench-build.log")
    with open(os.path.join(OUT, "rabench-build.lock"), "w") as lock, \
            open(log_path, "a") as build_log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not any(os.path.exists(os.path.join(BUILD, f))
                   for f in ("build.ninja", "Makefile")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD] + gen +
                         ["-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", target,
                      "-j", jobs])
        for cmd in steps:
            if subprocess.call(cmd, stdout=build_log,
                               stderr=subprocess.STDOUT) != 0:
                build_log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build of %s failed (see %s)" % (target, log_path))
    return os.path.join(BUILD, target)


def read_records(path):
    """Parses a record file; a torn last line (killed mid-write) is dropped."""
    out = []
    if not os.path.exists(path):
        return out
    with open(path) as f:
        for line in f:
            try:
                out.append(json.loads(line))
            except ValueError:
                pass
    return out


def supervise(cmd, out_path, index_key, err_path):
    """Runs cmd(start, poisoned) until it finishes its list.

    The child appends one record per finished item (keyed by index_key) to
    out_path. When a signal kills it, the first unfinished item is recorded
    as failed, its entry is poisoned (a synchronous client does not resend
    a request that killed the daemon) and a fresh child resumes after it.
    """
    start, poisoned = 0, []
    if os.path.exists(out_path):
        os.remove(out_path)
    while True:
        with open(err_path, "a") as err:
            proc = subprocess.Popen(cmd(start, poisoned),
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status = os.waitpid(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if os.WIFEXITED(status):
            if os.WEXITSTATUS(status) != 0:
                with open(err_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail("driver exited with status %d" % os.WEXITSTATUS(status))
            return
        recs = read_records(out_path)
        order = next((r["order"] for r in recs if r.get("kind") == "setup"),
                     None)
        if order is None:
            fail("driver killed by signal %d during set-up"
                 % os.WTERMSIG(status))
        done = {r[index_key] for r in recs if index_key in r}
        inflight = start
        while inflight in done:
            inflight += 1
        if inflight >= len(order):
            fail("driver killed by signal %d after its last item"
                 % os.WTERMSIG(status))
        entry = order[inflight]
        log("signal %d killed the driver on item %d (entry %d); restarting"
            % (os.WTERMSIG(status), inflight, entry))
        with open(out_path, "a") as f:
            f.write(json.dumps({index_key: inflight, "e": entry,
                                "failed": "signal %d" % os.WTERMSIG(status)})
                    + "\n")
        poisoned.append(entry)
        start = inflight + 1
        if len(poisoned) > MAX_RESTARTS:
            fail("more than %d driver crashes; giving up" % MAX_RESTARTS)


def by_index(recs, key):
    return {r[key]: r for r in recs if key in r}


def median(xs):
    return statistics.median(xs) if xs else 0.0


def p90(xs):
    if len(xs) < 2:
        return xs[0] if xs else 0.0
    return statistics.quantiles(xs, n=10)[8]


def session_total(recs, key):
    """Sums a session-cumulative counter over the sessions of a run (a
    restart after a crash starts a new session at zero)."""
    total, last = 0, 0
    for r in recs:
        if r[key] < last:
            total += last
        last = r[key]
    return total + last


def speed_scale(refs, n):
    """Per request index below n: REFERENCE_NS over the median of the
    REFERENCE_WINDOW reference samples nearest to the request."""
    # Stable by position: the samples of one gap keep their order.
    refs = sorted(((r["before"], r["ns"]) for r in refs), key=lambda r: r[0])
    if not refs:
        fail("the driver recorded no reference samples")
    at = [b for b, _ in refs]
    half = REFERENCE_WINDOW // 2
    # The samples around gap k (between samples k - 1 and k).
    gap = []
    for k in range(len(refs) + 1):
        lo = max(0, min(k - half, len(refs) - REFERENCE_WINDOW))
        gap.append(REFERENCE_NS / median(
            [ns for _, ns in refs[lo:lo + REFERENCE_WINDOW]]))
    return [gap[bisect.bisect_right(at, i)] for i in range(n)]


def timings(cpu, bounds):
    """verdicts_per_cpu_s, p50 ms and p90 ms per replicate, each reported
    as the median over the replicates; cpu maps request index -> ns."""
    per_rep = []
    for lo, hi in zip(bounds, bounds[1:]):
        xs = [cpu[i] for i in range(lo, hi) if i in cpu]
        if xs:
            per_rep.append((len(xs) / (sum(xs) / 1e9), median(xs) / 1e6,
                            p90(xs) / 1e6))
    return [median([r[k] for r in per_rep]) for k in range(3)]


def poison_flag(poisoned):
    return ["--poisoned", ",".join(map(str, poisoned))] if poisoned else []


def metric(value, unit):
    return {"value": value, "unit": unit}


def timed(args, work):
    exe = build("rabench_timed")
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]
    err = os.path.join(work, "stderr.log")

    run_out = os.path.join(work, "run.jsonl")

    def run_cmd(start, poisoned):
        return ([exe, "run"] + base + poison_flag(poisoned) +
                ["--out", run_out, "--from", str(start),
                 "--setup-reps", str(SETUP_REPS if start == 0 else 1)])

    supervise(run_cmd, run_out, "i", err)
    recs = read_records(run_out)
    peaks_kib = [r["peak_kb"] for r in recs if r.get("kind") == "rss"]
    setup = next(r for r in recs if r.get("kind") == "setup")
    order = setup["order"]
    reqs = by_index(recs, "i")

    # The oracle runs after the timed loop, in its own processes; answers
    # from a different algorithm are cached per checkout by query content.
    oracle_out = os.path.join(work, "oracle.jsonl")
    cache = os.path.join(OUT, "rabench-oracle-cache.txt")

    def oracle_cmd(start, poisoned):
        return ([exe, "oracle"] + base +
                ["--out", oracle_out, "--from", str(start), "--cache", cache])

    supervise(oracle_cmd, oracle_out, "e", err)
    oracle = by_index(read_records(oracle_out), "e")

    # A verdict that disagrees with its oracle stands only when a concrete
    # RA execution confirms the UNSAFE side (see Concrete in timed_main).
    attempted = len(order)
    disputed = sorted({
        r["e"] for r in reqs.values()
        if r.get("verdict") in DEFINITIVE
        and oracle.get(r["e"], {}).get("oracle") in DEFINITIVE
        and r["verdict"] != oracle[r["e"]]["oracle"]})
    concrete = {}
    if disputed:
        concrete_out = os.path.join(work, "concrete.jsonl")

        def concrete_cmd(start, poisoned):
            return ([exe, "concrete"] + base +
                    ["--out", concrete_out, "--from", str(start),
                     "--cache", cache,
                     "--entries", ",".join(map(str, disputed))])

        supervise(concrete_cmd, concrete_out, "k", err)
        concrete = {r["e"]: r["concrete"]
                    for r in read_records(concrete_out) if "concrete" in r}

    failed = decided = ok = wrong = unchecked = 0
    refuted = set()
    cpu = {}  # request index -> CPU ns, answered requests only
    counts = []
    for i in range(attempted):
        r = reqs.get(i, {"failed": "missing"})
        if "failed" in r:
            failed += 1
            counts.append([i, "failed", r["failed"]])
            continue
        cpu[i] = r["cpu_ns"]
        v = r["verdict"]
        counts.append([i, v, r.get("cache", ""), r["guesses"], r["tuples"],
                       r["firings"], r["states"]])
        if v in DEFINITIVE:
            decided += 1
        # A request whose oracle crashed or answered unknown is unchecked:
        # attempted, but not ok.
        o = oracle.get(r["e"], {}).get("oracle")
        if o not in DEFINITIVE:
            unchecked += 1
            continue
        if v in DEFINITIVE and v != o:
            if v == "unsafe" and concrete.get(r["e"]) == "unsafe":
                refuted.add(r["e"])
            else:
                wrong += 1
                log("request %d (entry %d): verdict %s, oracle %s (%s), "
                    "concrete RA search %s" % (
                        i, r["e"], v, o, oracle[r["e"]]["how"],
                        concrete.get(r["e"], "not run")))
                continue
        ok += 1
    for e in sorted(refuted):
        log("entry %d: the %s oracle answered safe, but a concrete RA "
            "execution reaches the goal; the verdict under test stands"
            % (e, oracle[e]["how"]))
    answered = [reqs[i] for i in range(attempted)
                if "cache" in reqs.get(i, {})]
    hits = sum(r["cache"] == "hit" for r in answered)
    misses = sum(r["cache"] == "miss" for r in answered)
    evictions = session_total(answered, "evictions")
    # Timings per replicate (a corpus pass or a serve stream), reported as
    # the median over replicates, in CPU time at the reference speed.
    bounds = setup["replicates"] + [attempted]
    scale = speed_scale([r for r in recs if r.get("kind") == "ref"],
                        attempted)
    rate, p50_ms, p90_ms = timings(
        {i: ns * scale[i] for i, ns in cpu.items()}, bounds)
    per_setup = SETUP_REFERENCE_SAMPLES
    setup_s = median([
        ns * REFERENCE_NS / median(
            setup["setup_ref_ns"][r * per_setup:(r + 1) * per_setup])
        for r, ns in enumerate(setup["setup_ns"])]) / 1e9
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "verdicts_per_cpu_s": metric(rate, "1/s"),
        "verify_cpu_ms_p50": metric(p50_ms, "ms"),
        "verify_cpu_ms_p90": metric(p90_ms, "ms"),
        "decided_ratio": metric(decided / attempted, "ratio"),
        "ok_ratio": metric(ok / attempted, "ratio"),
        "peak_rss_mb": metric(median(peaks_kib) / 1024.0, "MB"),
    }
    # The same timings in raw process CPU, for the record.
    raw = dict(zip(("verdicts_per_cpu_s", "verify_cpu_ms_p50",
                    "verify_cpu_ms_p90"), timings(cpu, bounds)))
    raw["setup_s"] = median(setup["setup_ns"]) / 1e9
    speed = median(scale)
    log("%s seed %d: %d requests, %d failed, %d unchecked by the oracle, "
        "cache hits %d misses %d evictions %d; machine speed %.3f of the "
        "reference (raw CPU: %s)"
        % (args.workload, args.seed, attempted, failed, unchecked, hits,
           misses, evictions, speed,
           ", ".join("%s %.4g" % kv for kv in sorted(raw.items()))))
    details = {"attempted": attempted, "failed": failed, "decided": decided,
               "ok": ok, "wrong": wrong, "unchecked": unchecked,
               "oracle_refuted": sorted(refuted),
               "hits": hits, "misses": misses, "evictions": evictions,
               "speed": speed, "raw_cpu": raw,
               "requests": counts}
    return wrong == 0, attempted, failed, metrics, details


# Per-layer metrics that are a span's self time per request, in ms:
# (metric name, span name); see README.md.
PER_VERDICT_MS = [
    ("encoding.enumerate_ms", "encoding.enumerate"),
    ("encoding.makep_ms", "encoding.makep"),
    ("dlopt.optimize_ms", "dlopt.optimize"),
    ("dlopt.hints_ms", "dlopt.hints"),
    ("datalog.eval_ms", "datalog.eval"),
    ("analysis.prepass_ms", "analysis.prepass"),
    ("lang.parse_ms", "lang.parse"),
    ("lowerbound.generate_ms", "lowerbound.generate"),
    ("simplified.explore_ms", "simplified.explore"),
    ("tmai.fixpoint_ms", "tmai.fixpoint"),
    ("core.render_ms", "core.render"),
    ("common.json_parse_ms", "common.json_parse"),
]


def traced(args, work):
    exe = build("rabench_traced")
    out = os.path.join(work, "trace.jsonl")
    err = os.path.join(work, "stderr.log")
    segment = [0]

    def trace_cmd(start, poisoned):
        segment[0] += 1
        cmd = [exe, "trace", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", out, "--from", str(start)] + poison_flag(poisoned) + [
               "--trace-file",
               os.path.join(work, "trace.%d.json" % segment[0])]
        return cmd

    supervise(trace_cmd, out, "i", err)
    recs = read_records(out)
    order = next(r for r in recs if r.get("kind") == "setup")["order"]
    reqs = by_index(recs, "i")
    attempted = len(order)
    rows = [reqs.get(i, {"failed": "missing"}) for i in range(attempted)]
    good = [r for r in rows if "failed" not in r]
    failed = attempted - len(good)
    mismatches = [r for r in good if "mismatch" in r]
    for r in mismatches[:10]:
        log("replay of request %d (entry %d) differs: %s"
            % (r["i"], r["e"], r["mismatch"]))

    def self_ns(span, rs=good):
        return sum(r["self_ns"].get(span, 0) for r in rs)

    def calls(span, rs=good):
        return sum(r["calls"].get(span, 0) for r in rs)

    def total(key, rs=good):
        return sum(r.get(key, 0) for r in rs)

    def ratio(a, b):
        return a / b if b else 0.0

    n = max(1, len(good))
    replayed = [r for r in good if r.get("replayed")]
    m = {}
    for name, span in PER_VERDICT_MS:
        m[name] = metric(self_ns(span) / n / 1e6, "ms")
    makep_calls = calls("encoding.makep")
    m["encoding.guesses"] = metric(total("guesses") / n, "count")
    m["encoding.makep_us_per_guess"] = metric(
        ratio(self_ns("encoding.makep"), makep_calls) / 1e3, "us")
    m["encoding.rules_per_guess"] = metric(
        ratio(total("rules_emitted"), makep_calls), "count")
    m["dlopt.rules_kept_ratio"] = metric(
        ratio(total("rules_after"), total("rules_emitted")), "ratio")
    m["datalog.rule_firings"] = metric(total("firings") / n, "count")
    m["datalog.ns_per_firing"] = metric(
        ratio(self_ns("datalog.eval"), total("firings")), "ns")
    m["datalog.index_hit_ratio"] = metric(
        ratio(total("index_hits"), total("join_attempts")), "ratio")
    m["datalog.budget_aborts"] = metric(total("budget_aborts"), "count")
    m["simplified.states"] = metric(total("states") / n, "count")
    # Witness and dependency-graph costs are per UNSAFE verdict.
    m["simplified.witness_ms"] = metric(
        ratio(self_ns("simplified.witness"), calls("simplified.witness"))
        / 1e6, "ms")
    m["depgraph.cost_ms"] = metric(
        ratio(self_ns("depgraph.cost"), calls("depgraph.cost")) / 1e6, "ms")
    tmai = [r for r in replayed if r["calls"].get("tmai.fixpoint")]
    m["tmai.unknown_ratio"] = metric(
        ratio(sum(r["verdict"] != "safe" for r in tmai), len(tmai)), "ratio")
    m["tmai.certcheck_ms"] = metric(
        ratio(self_ns("tmai.certcheck"), calls("tmai.certcheck")) / 1e6, "ms")
    served = [r for r in good if "handle_ns" in r]
    hit_ns = [r["handle_ns"] for r in served if r["cache"] == "hit"]
    miss_ns = [r["handle_ns"] for r in served if r["cache"] == "miss"]
    m["core.serve.hit_cpu_ms_p50"] = metric(median(hit_ns) / 1e6, "ms")
    m["core.serve.miss_cpu_ms_p50"] = metric(median(miss_ns) / 1e6, "ms")
    m["core.serve.hit_ratio"] = metric(ratio(len(hit_ns), attempted),
                                       "ratio")
    evictions = session_total(served, "evictions")
    m["core.serve.evictions"] = metric(evictions, "count")
    m["core.serve.self_ms"] = metric(total("serve_self_ns") / n / 1e6, "ms")
    traced_ns = total("traced_ns", replayed)
    m["obs.trace_overhead_ratio"] = metric(
        ratio(traced_ns, total("untraced_ns", replayed)), "ratio")
    # The split of a verdict's CPU by layer self time. For serve requests
    # the whole is HandleLine's CPU and the session's own share is what
    # the separately timed pieces leave; otherwise it is the replay, and
    # parsing and generation (set-up work) stay outside.
    if served:
        whole = sum(r["handle_ns"] for r in served)
        split = {"core.serve.self": total("serve_self_ns")}
        outside = ("core.serve",)
    else:
        whole = traced_ns
        split = {}
        outside = ("lang.parse", "lowerbound.generate")
    for r in good:
        for span, ns in r["self_ns"].items():
            if span not in outside:
                split[span] = split.get(span, 0) + ns
    m["encoding.makep_share"] = metric(
        ratio(split.get("encoding.makep", 0), whole), "ratio")
    m["dlopt.share"] = metric(
        ratio(split.get("dlopt.optimize", 0) + split.get("dlopt.hints", 0),
              whole), "ratio")
    m["datalog.eval_share"] = metric(
        ratio(split.get("datalog.eval", 0), whole), "ratio")
    log("traced split of %d requests (self CPU): %s" % (
        len(good), ", ".join(
            "%s %.1f%%" % (k, 100.0 * ratio(v, whole))
            for k, v in sorted(split.items(), key=lambda kv: -kv[1]))))
    details = {"attempted": attempted, "failed": failed,
               "mismatches": len(mismatches),
               "hits": len(hit_ns), "misses": len(miss_ns),
               "evictions": evictions,
               "requests": [[r["i"], r.get("verdict", ""), r.get("guesses"),
                             r.get("tuples"), r.get("firings"),
                             r.get("states"), r.get("cache", "")]
                            for r in good]}
    return not mismatches, attempted, failed, m, details


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)"
             % (args.workload, ", ".join(WORKLOADS)))
    work = work_dir(args.workload, args.seed, args.trace)
    os.makedirs(work, exist_ok=True)
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    correct, attempted, failed, metrics, details = (
        traced if args.trace else timed)(args, work)
    # Per-request counts and cache counters, which the result line has no
    # room for (the determinism tests read them).
    with open(os.path.join(work, DETAILS), "w") as f:
        json.dump(details, f)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
