"""Tests of the benchmark itself (not part of the package's test suite).

    python3 bench/selftest.py            # about two minutes: builds the kit a few times
    python3 bench/selftest.py Oracles    # the fast checks only

* Smoke: every workload and the traced suite once on tiny inputs, so every
  job and every checker runs, and each prints every metric BENCHMARK.json
  names.
* Negative: corrupted, truncated or empty output is counted as failed.
* Memory: streaming a large output leaves the harness small, so a worker's
  peak RSS is its own.
"""
from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402


def spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def bench(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def feed(checker: wl.Checker, lines, returncode: int = 0):
    for line in lines:
        checker.feed(line)
    return checker.verdict(returncode)


class Oracles(unittest.TestCase):
    def test_counting_rules_match_known_counts(self):
        self.assertEqual(wl.scalar_model_forced_zero(2), 36 - 10)  # README: 10 survive
        self.assertEqual(wl.scalar_model_forced_zero(3), 160)
        self.assertEqual(wl.partial_matchings(2, 2) * wl.partial_matchings(4, 4), 1463)
        self.assertEqual(wl.classify_verdict("scalar_model", 1), "renormalizable; wAL-eligible")

    def test_selfenergy_grids_are_exact_and_cross_threshold(self):
        for seed in range(20):
            grids = wl.selfenergy_grids(random.Random(seed))
            for grid in grids:
                self.assertIn(0.0, grid)
                self.assertTrue(grid[0] < 0.0 and grid[-1] > 4.0 and len(grid) == 64)
            self.assertEqual(sum(q2 > 4.0 for grid in grids for q2 in grid), 30)

    def test_corrupted_outputs_fail(self):
        line = '{"s_list": [], "sign": 1, "vev_forced_zero": true}'
        self.assertIsNone(feed(wl.TermStream(3, 3), [line] * 3))
        self.assertIn("lines", feed(wl.TermStream(3, 3), [line] * 2))
        self.assertIn("forced-zero", feed(wl.TermStream(3, 3), [line] * 2 + [line.replace("true", "false")]))
        self.assertIn("malformed", feed(wl.TermStream(3, 3), [line] * 2 + [line[:20]]))
        self.assertEqual(feed(wl.TermStream(0), []), "empty output")
        self.assertIn("exit code", feed(wl.TermStream(3, 3), [line] * 3, returncode=1))

        for q2, re, im in [(-1.0, 3e-4, 0.0), (0.0, 0.0, 0.0), (4.0, 0.03, 0.0),
                           (5.0, 0.04, wl.bubble_im(5.0))]:
            self.assertIsNone(wl.sigma_failure(q2, re, im))
        self.assertIn("Im", wl.sigma_failure(5.0, 0.04, 0.0357))
        self.assertIn("Im", wl.sigma_failure(3.0, 0.04, 1e-12))
        self.assertIn("Sigma(0)", wl.sigma_failure(0.0, 1e-3, 0.0))
        self.assertIn("finite", wl.sigma_failure(1.0, float("nan"), 0.0))

        self.assertIn("first line", feed(wl.FirstLine("3", 1), ["2"]))
        doc = {side: {"converged": False, "log_slope": [0.0, wl.SLOPE_PER_CMIS]}
               for side in ("advanced", "retarded")}
        self.assertIsNone(feed(wl.JsonDocument(wl.judge_adiabatic(1.0)), [json.dumps(doc)]))
        doc["retarded"]["converged"] = True
        self.assertIn("converged", feed(wl.JsonDocument(wl.judge_adiabatic(1.0)), [json.dumps(doc)]))
        self.assertIn("not JSON", feed(wl.JsonDocument(wl.judge_adiabatic(1.0)), ['{"adv']))


class Harness(unittest.TestCase):
    def test_wrong_output_counts_as_failed(self):
        r = run.Run()
        # one argument gives the single tautological term where the oracle wants 36
        job = wl._wick("scalar_model", 2)
        job.argv = ["wick", "--model", "scalar_model", "--args", "L"]
        run.run_job(r, job)
        self.assertEqual((r.attempted, len(r.failures)), (1, 1))
        self.assertIn("1 lines, want 36", r.failures[0])

    def test_exit_zero_with_empty_output_counts_as_failed(self):
        r = run.Run()
        job = wl.Job("silent", ["--version"], lambda: wl.FirstLine("x"))
        saved = run.CLI
        run.CLI = [sys.executable, "-c", "pass"]
        try:
            run.run_job(r, job)
        finally:
            run.CLI = saved
        self.assertEqual(len(r.failures), 1)
        self.assertIn("empty output", r.failures[0])

    def test_streaming_keeps_the_harness_small(self):
        """200 MB of output passes through; the harness's own peak RSS barely
        moves, so a later tiny child is not charged for it."""
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        count = [0]
        big = run.run_child(
            [sys.executable, "-c",
             "import sys\nw = sys.stdout.write\nline = 'x' * 999 + '\\n'\n"
             "for _ in range(200000): w(line)"],
            lambda line: count.__setitem__(0, count[0] + 1))
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.assertEqual((big.returncode, count[0]), (0, 200000))
        self.assertLess(after - before, 20.0)
        tiny = run.run_child([sys.executable, "-c", "pass"], lambda line: None)
        self.assertLess(tiny.peak_rss_mb, max(after, 20.0) + 5.0)
        self.assertLess(tiny.peak_rss_mb, 60.0)


class Smoke(unittest.TestCase):
    def check_result(self, res: dict, names: list[str]):
        self.assertTrue(res["correct"], res)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(sorted(res["metrics"]), sorted(names))
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_once(self):
        names = [m["name"] for m in spec()["end_to_end"]]
        for w in spec()["workloads"]:
            with self.subTest(workload=w["name"]):
                res = bench(w["name"], 0)
                self.check_result(res, names)
                self.assertEqual(res["metrics"]["ok_ratio"]["value"], 1.0)

    def test_traced_suite_once(self):
        res = bench("cli_symbolic", 1)
        self.check_result(res, [m["name"] for m in spec()["per_layer"]])
        values = {k: m["value"] for k, m in res["metrics"].items()}
        self.assertEqual(values["wick_pairing.wick_expand.terms"], 36 + 216)
        self.assertEqual(values["propagators_kinematics.two_body_phase_space.calls"], 1209219)
        self.assertGreater(values["trace.overhead_ratio"], 0.5)


if __name__ == "__main__":
    unittest.main()
