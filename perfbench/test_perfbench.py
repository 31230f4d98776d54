#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

- the binary's self-test: percentiles are exact on known inputs, and the
  arrival schedule, the query streams and the instance order are functions
  of the seed alone;
- every workload, traced and untraced, prints exactly the metric names and
  units BENCHMARK.json lists, reports zero failures, and keeps its JSON
  result on the last line;
- without the antidote sources next to it, the benchmark fails without
  printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN] + list(args), cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


class SelfTest(unittest.TestCase):
    def test_selftest_passes(self):
        done = run("--selftest")
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertIn("selftest: ok", done.stdout)


class MetricNames(unittest.TestCase):
    def check(self, workload, trace):
        spec = bench_spec()
        table = spec["per_layer" if trace else "end_to_end"]
        done = run("--workload", workload, "--seed", "3", "--seconds", "2",
                   "--trace", str(trace))
        self.assertEqual(done.returncode, 0, done.stdout[-3000:] + done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"], done.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in table])
        for m in table:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, name)

    def test_workload_names(self):
        self.assertEqual([w["name"] for w in bench_spec()["workloads"]],
                         ["serve_hot", "serve_cold", "sweep"])

    def test_serve_hot(self):
        self.check("serve_hot", 0)
        self.check("serve_hot", 1)

    def test_serve_cold(self):
        self.check("serve_cold", 0)
        self.check("serve_cold", 1)

    def test_sweep(self):
        self.check("sweep", 0)
        self.check("sweep", 1)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
