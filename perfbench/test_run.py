#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny size, in both modes.

    python3 perfbench/test_run.py

For each workload and mode, run.py's last line must hold exactly the keys
correct, attempted, failed and metrics; every metric BENCHMARK.json declares
for the mode, with its unit; no undeclared metric; and passing output checks.
The simulated metrics must repeat exactly for one seed and follow the seed.
Without the library sources next to it, the benchmark must fail without
printing a result. Takes a few seconds after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("serve_overload", "cluster_pipeline", "serve_armed",
             "paper_functional")


def run(workload, seed=1, trace=0):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.3", "--trace",
         str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sim_metrics(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith("sim_")}


class BenchmarkOutputTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def check_line(self, result, group):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        declared = {m["name"]: m["unit"] for m in self.bench[group]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, declared)
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_every_workload_prints_declared_metrics(self):
        for workload in WORKLOADS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    self.check_line(run(workload, trace=trace), group)

    def test_end_to_end_metrics_are_never_zero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                for name, m in run(workload)["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_sim_metrics_follow_the_seed(self):
        first = sim_metrics(run("serve_overload", seed=3))
        self.assertEqual(first, sim_metrics(run("serve_overload", seed=3)))
        self.assertNotEqual(first, sim_metrics(run("serve_overload", seed=4)))

    def test_fails_without_the_library_sources(self):
        alone = os.path.join(ROOT, ".bench_build", "no-sources")
        shutil.rmtree(alone, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "serve_overload", "--seed", "1", "--seconds", "1"],
                capture_output=True, text=True, cwd=alone, timeout=180)
        finally:
            shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
