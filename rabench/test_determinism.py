#!/usr/bin/env python3
"""Tests of the benchmark itself: determinism, and the speed scaling.

    python3 rabench/test_determinism.py [-v]

Runs from any directory; builds into .bench_build/ of the checkout that
holds this file. Takes a few minutes (every workload runs twice).
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
os.chdir(ROOT)
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py resolves paths from the working directory)

SECONDS = 1  # the smallest request lists the workloads allow


def bench(workload, seed, trace):
    """Runs run.py; returns (exit code, result line, details)."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(SECONDS), "--trace", str(trace)],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=600)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    with open(os.path.join(run.work_dir(workload, seed, trace),
                           run.DETAILS)) as f:
        return p.returncode, result, json.load(f)


def dump(workload, seed):
    exe = run.build("rabench_timed")
    return subprocess.run([exe, "dump", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS)],
                          stdout=subprocess.PIPE, check=True).stdout


class RequestLists(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_order(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                first = dump(w, 7)
                self.assertEqual(first, dump(w, 7))
                self.assertNotEqual(first, dump(w, 8))

    def test_seed_lists_match_their_guess_bands(self):
        # The corpus lists compiled into the drivers are what the band
        # rules select from the generator (recomputed with the enumerator).
        exe = run.build("rabench_traced")
        for name in ("guess-heavy", "serve-datalog"):
            with self.subTest(band=name):
                band = subprocess.run([exe, "band", name],
                                      stdout=subprocess.PIPE,
                                      check=True).stdout
                with open(os.path.join(HERE, name + "_seeds.inc"),
                          "rb") as f:
                    self.assertEqual(band, f.read())


class SpeedScale(unittest.TestCase):
    def test_each_request_is_scaled_by_the_samples_nearest_to_it(self):
        # A reference sample before every request and after the last;
        # requests 0-9 ran at the usual speed, 10-19 at half of it.
        refs = [{"before": i, "ns": run.REFERENCE_NS * (1 if i < 10 else 2)}
                for i in range(21)]
        scale = run.speed_scale(refs, 20)
        self.assertEqual(scale[:6], [1.0] * 6)
        self.assertEqual(scale[14:], [0.5] * 6)


class Runs(unittest.TestCase):
    def test_two_runs_of_one_seed_count_the_same(self):
        for w in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    code1, res1, det1 = bench(w, 3, trace)
                    code2, res2, det2 = bench(w, 3, trace)
                    self.assertEqual((code1, code2), (0, 0))
                    self.assertTrue(res1["correct"])
                    for key in ("attempted", "failed", "decided", "ok",
                                "unchecked", "hits", "misses", "evictions",
                                "requests"):
                        self.assertEqual(det1.get(key), det2.get(key), key)
                    if trace == 0:
                        # Every request is exactly one of these.
                        self.assertEqual(
                            det1["failed"] + det1["unchecked"] +
                            det1["wrong"] + det1["ok"], det1["attempted"])
                        for m in ("decided_ratio", "ok_ratio"):
                            self.assertEqual(res1["metrics"][m],
                                             res2["metrics"][m])
                    else:
                        self.assertEqual(det1["mismatches"], 0)
                        for m in ("core.serve.hit_ratio",
                                  "core.serve.evictions",
                                  "encoding.guesses",
                                  "datalog.rule_firings",
                                  "simplified.states"):
                            self.assertEqual(res1["metrics"][m],
                                             res2["metrics"][m])

    def test_second_seed_runs_clean(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, res, det = bench(w, 12345, 0)
                self.assertEqual(code, 0)
                self.assertTrue(res["correct"])
                self.assertEqual(det["wrong"], 0)

    def test_a_request_that_kills_the_daemon_is_one_failed_request(self):
        # Generator seeds 100, 406 and 993 abort the simplified explorer
        # (an assert in ApplyStep) on an ordinary serve-mixed run. The
        # first request of each kills the driver and is one failed request;
        # the client does not resend it, so that entry's later requests
        # fail unsent ("poisoned"). No other request fails.
        ids = [json.loads(line)["id"]
               for line in dump("serve-mixed", 1).decode().splitlines()]
        code, res, det = bench("serve-mixed", 1, 0)
        self.assertEqual(code, 0)
        self.assertTrue(res["correct"])
        self.assertEqual(res["attempted"], len(ids))
        why = {row[0]: row[2] for row in det["requests"]
               if row[1] == "failed"}
        crashes = ("gen:100", "gen:406", "gen:993")
        self.assertEqual({ids[i] for i in why}, set(crashes))
        self.assertEqual(res["failed"], len(why))
        for crash in crashes:
            with self.subTest(entry=crash):
                reasons = [why[i] for i, x in enumerate(ids) if x == crash]
                self.assertTrue(reasons[0].startswith("signal"), reasons[0])
                self.assertEqual(reasons[1:],
                                 ["poisoned"] * (len(reasons) - 1))


if __name__ == "__main__":
    unittest.main()
