#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the benchmark (as run.py does) and drive it at tiny scale
(--smoke): every named metric prints with its unit, fail_ratio is 0 on a
correct tree, a planted BrokenTatas unit driven through run_one is counted
as a failure, and the benchmark refuses to run without the sources.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sim-spin", "sim-handover", "check-explore", "native-kv"]


def load(path):
    with open(path) as f:
        return json.load(f)


def run(workload, trace, *extra, root=ROOT):
    done = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)] + list(extra),
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done.returncode, result, done.stdout


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_metric_table(self):
        bench = load(os.path.join(ROOT, "BENCHMARK.json"))
        table = load(os.path.join(HERE, "metrics.json"))
        self.assertEqual(
            sorted(bench),
            ["command", "end_to_end", "paths", "per_layer", "run_seconds",
             "workloads"])
        self.assertEqual([w["name"] for w in bench["workloads"]], WORKLOADS)
        for kind in ("end_to_end", "per_layer"):
            ours = [(m["name"], m["unit"], m["better"]) for m in table[kind]]
            theirs = [(m["name"], m["unit"], m["better"])
                      for m in bench[kind]]
            self.assertEqual(ours, theirs, kind)
        for m in table["per_layer"]:
            self.assertTrue(m["layer"] and m["how"] and m["on"], m["name"])
            for w in m["on"]:
                self.assertIn(w, WORKLOADS)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class Smoke(unittest.TestCase):
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))

    def check_metrics(self, result, specs):
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        for spec in specs:
            self.assertIn(spec["name"], result["metrics"])
            metric = result["metrics"][spec["name"]]
            self.assertEqual(metric["unit"], spec["unit"], spec["name"])
            self.assertIsInstance(metric["value"], (int, float))
        self.assertEqual(len(result["metrics"]), len(specs))

    def test_every_workload_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                rc, result, out = run(workload, 0, "--smoke")
                self.assertEqual(rc, 0, out)
                self.check_metrics(result, self.bench["end_to_end"])
                # fail_ratio is 0 on a correct tree.
                self.assertTrue(result["correct"], out)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0, out)

    def test_traced_run_prints_every_per_layer_metric(self):
        rc, result, out = run("sim-spin", 1, "--smoke")
        self.assertEqual(rc, 0, out)
        self.check_metrics(result, self.bench["per_layer"])
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0, out)

    def test_planted_broken_tatas_counts_as_failure(self):
        rc, result, out = run("check-explore", 0, "--smoke",
                              "--plant", "broken-tatas")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0, out)
        self.assertIn("BROKEN_TATAS (planted) seeded execution failed", out)

    def test_refuses_to_run_without_the_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "no-sources")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            rc, result, _ = run("sim-spin", 0, root=scratch)
            self.assertNotEqual(rc, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
