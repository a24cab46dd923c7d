#!/usr/bin/env python3
"""Tests of the benchmark itself (smoke-sized runs).

    python3 perfbench/test_perfbench.py

Every workload runs at --seconds 1, untraced and traced: the result line
must carry exactly the metric names and units BENCHMARK.json declares,
and every output check must pass. The determinism test runs one seed
twice and with --workers 1 vs 2 and compares the deterministic outputs.
ExpectedRecord checks how run.py keys and records those outputs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = "1"
WORKLOADS = ("fleet_churn", "durable_churn", "replan", "phy_sweep")


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", SMOKE_SECONDS,
           "--trace", str(trace)] + list(extra)
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise AssertionError("%s failed (%d):\n%s" % (
            " ".join(cmd), res.returncode, res.stderr[-3000:]))
    tagged = {}
    for line in lines[:-1]:
        tag, _, body = line.partition(": ")
        if tag in ("context", "deterministic"):
            tagged[tag] = json.loads(body)
    return json.loads(lines[-1]), tagged


class BenchmarkContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        units = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, units)
        for name, value in result["metrics"].items():
            self.assertIsInstance(value["value"], (int, float), name)

    def test_every_workload_smoke(self):
        # durable_churn and replan are not gated (see README.md) but must
        # keep working.
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(set(names) | {"durable_churn", "replan"},
                         set(WORKLOADS))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, tagged = run(workload, 7, 0)
                self.check_result(result, self.spec["end_to_end"])
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)
                self.assertIn("git_rev", tagged["context"])
                if workload != "phy_sweep":
                    self.assertIn("state_dir_fdatasync_us",
                                  tagged["context"])
                traced, _ = run(workload, 7, 1)
                self.check_result(traced, self.spec["per_layer"])


class Determinism(unittest.TestCase):
    def test_same_seed_same_outputs(self):
        for workload in ("fleet_churn", "replan", "phy_sweep"):
            with self.subTest(workload=workload):
                _, a = run(workload, 3, 0)
                _, b = run(workload, 3, 0)
                self.assertEqual(a["deterministic"], b["deterministic"])

    def test_workers_do_not_change_the_plan(self):
        for workload in ("fleet_churn", "durable_churn", "replan"):
            with self.subTest(workload=workload):
                _, one = run(workload, 4, 0, "--workers", "1")
                _, two = run(workload, 4, 0, "--workers", "2")
                self.assertEqual(one["deterministic"]["plan_fingerprint"],
                                 two["deterministic"]["plan_fingerprint"])
                self.assertEqual(one["deterministic"], two["deterministic"])


class ExpectedRecord(unittest.TestCase):
    """run.py's record of deterministic outputs, without running."""

    def setUp(self):
        sys.path.insert(0, HERE)
        import run as run_py
        self.run_py = run_py
        self.tmp = tempfile.TemporaryDirectory()
        self.saved_root = run_py.BUILD_ROOT
        run_py.BUILD_ROOT = self.tmp.name
        self.args = argparse.Namespace(workload="replan", seed=5, seconds=1.0)

    def tearDown(self):
        self.run_py.BUILD_ROOT = self.saved_root
        self.tmp.cleanup()
        sys.path.remove(HERE)

    def check(self, sources, value, correct=True):
        return self.run_py.check_expected(self.args, sources, {"n": value},
                                          correct)

    def test_incorrect_run_is_not_recorded(self):
        self.assertEqual(self.check("aaaa", 1, correct=False), [])
        self.assertEqual(self.check("aaaa", 2), [])
        self.assertEqual(len(self.check("aaaa", 1)), 1)

    def test_record_is_keyed_on_the_sources(self):
        self.assertEqual(self.check("aaaa", 1), [])
        self.assertEqual(self.check("aaaa", 1), [])
        self.assertEqual(len(self.check("aaaa", 2)), 1)
        # Changed sources may legitimately change an exact count.
        self.assertEqual(self.check("bbbb", 2), [])
        self.assertEqual(len(self.check("bbbb", 1)), 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
