#!/usr/bin/env python3
"""Tests of the benchmark's own checks and argument handling.

    python3 perfbench/test_run.py

Runs perfbench/run.py on small universes (--peers), so it takes about a
minute after perfbench is built.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (perfbench/run.py)

SMALL = ["--peers", "300", "--seconds", "1"]


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BadArguments(unittest.TestCase):
    CASES = [
        ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"],
        ["--workload", "fig-sweep", "--seed", "-1", "--seconds", "1", "--trace", "0"],
        ["--workload", "fig-sweep", "--seed", "abc", "--seconds", "1", "--trace", "0"],
        ["--workload", "fig-sweep", "--seed", "1", "--seconds", "0", "--trace", "0"],
        ["--workload", "fig-sweep", "--seed", "1", "--seconds", "1", "--trace", "2"],
        ["--workload", "fig-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
         "--peers", "0"],
        ["--workload", "fig-sweep", "--seed", "1", "--seconds", "1"],
    ]

    def test_run_py_rejects_with_a_message(self):
        for args in self.CASES:
            with self.subTest(args=args):
                proc = run(*args)
                self.assertNotEqual(proc.returncode, 0)
                self.assertEqual(proc.stdout, "")
                self.assertIn("error", proc.stderr)
                self.assertNotIn("Traceback", proc.stderr)

    def test_perfbench_binary_exits_cleanly(self):
        run("--workload", "churn-1shard", "--seed", "1", "--trace", "0", *SMALL)
        binary = bench.build_dir() / "perfbench"
        for args in (["--workload", "nope"], ["--seed", "-3"], ["--peers", "0"],
                     ["--seconds", "x"], ["--bogus", "1"]):
            with self.subTest(args=args):
                base = {"--workload": "churn-1shard", "--seed": "1",
                        "--seconds": "1", "--trace": "0"}
                base.update(dict(zip(args[::2], args[1::2])))
                argv = [x for kv in base.items() for x in kv]
                proc = subprocess.run([str(binary), *argv], capture_output=True,
                                      text=True, timeout=120)
                # A positive status: exited with a message, not killed by
                # std::terminate's SIGABRT (a negative status here).
                self.assertGreater(proc.returncode, 0)
                self.assertIn("perfbench:", proc.stderr)

    def test_checkout_without_sources_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "fig-sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
                env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


class DigestChecks(unittest.TestCase):
    def test_k_invariance_and_injected_mismatch(self):
        clean = run("--workload", "churn-1shard", "--seed", "7", "--trace", "0", *SMALL)
        self.assertEqual(clean.returncode, 0, clean.stderr)
        self.assertTrue(result_of(clean)["correct"])

        k2 = run("--workload", "churn-2shard", "--seed", "7", "--trace", "0", *SMALL)
        self.assertEqual(k2.returncode, 0, k2.stderr)
        self.assertTrue(result_of(k2)["correct"])

        bad = run("--workload", "churn-2shard", "--seed", "7", "--trace", "0",
                  "--inject-fault", "digest", *SMALL)
        self.assertNotEqual(bad.returncode, 0)
        result = result_of(bad)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        frac_line = [l for l in bad.stdout.splitlines()
                     if l.startswith("# check_fail_frac = ")][0]
        self.assertGreater(float(frac_line.split()[3]), 0.0)


class TracedRun(unittest.TestCase):
    def test_spans_and_per_layer_metrics(self):
        proc = run("--workload", "churn-1shard", "--seed", "5", "--trace", "1", *SMALL)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(result_of(proc)["metrics"]),
                         {m["name"] for m in spec["per_layer"]})
        trace = json.loads((bench.build_dir() / "traces" / "churn-1shard-seed5.json").read_text())
        events = trace["traceEvents"]
        names = {e["name"] for e in events}
        for layer in ("bench.episode", "runtime.build", "sim.run_until",
                      "runtime.add_peer", "runtime.remove_peer", "runtime.rebind",
                      "metrics.oracle", "metrics.measure_clusters",
                      "runtime.state_digest"):
            self.assertIn(layer, names)
        root = [e for e in events if e["args"]["parent"] == -1]
        self.assertEqual([e["name"] for e in root], ["bench.episode"])
        for e in events:
            parent = e["args"]["parent"]
            if parent >= 0:
                p = events[parent]
                self.assertLessEqual(p["ts"], e["ts"])
                self.assertGreaterEqual(p["ts"] + p["dur"] + 1e-3, e["ts"] + e["dur"])


if __name__ == "__main__":
    unittest.main()
