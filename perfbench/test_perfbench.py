#!/usr/bin/env python3
"""Self-test of the benchmark at smoke scale (seconds per run).

    python3 perfbench/test_perfbench.py

Run from the checkout root. For every workload of run.py (dashboard and
refresh included, though BENCHMARK.json does not gate them) it checks that a plain run
emits exactly BENCHMARK.json's end-to-end metrics and a traced run exactly
its per-layer metrics, each with its unit; that a second seed yields the
same metric set; and that the planted wrong-answer drill makes the run
fail.
"""

import json
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)
sys.path.insert(0, BENCH_DIR)
from run import WORKLOADS  # noqa: E402


def run(workload, seed=1, trace=0, drill=False):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "2",
               "--trace", str(trace), "--smoke"]
    if drill:
        command.append("--plant-wrong-answer")
    result = subprocess.run(command, cwd=ROOT, capture_output=True,
                            text=True, timeout=600)
    lines = result.stdout.strip().splitlines()
    return result.returncode, json.loads(lines[-1]) if lines else None


class PerfbenchSmokeTest(unittest.TestCase):

    def check_metrics(self, result, expected):
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            {m["name"]: m["unit"] for m in expected})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_emits_every_metric(self):
        for workload in WORKLOADS:
            for trace, expected in ((0, BENCHMARK["end_to_end"]),
                                    (1, BENCHMARK["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    code, result = run(workload, trace=trace)
                    self.assertEqual(code, 0, result)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.check_metrics(result, expected)
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_second_seed_yields_the_same_metric_set(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, seed=2)
                self.assertEqual(code, 0, result)
                self.check_metrics(result, BENCHMARK["end_to_end"])

    def test_planted_wrong_answer_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, drill=True)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])


if __name__ == "__main__":
    unittest.main()
