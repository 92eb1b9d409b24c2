#!/usr/bin/env python3
"""Tests for the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark binary (through run.py, into the usual build directory) and
checks that every workload completes at a tiny size, traced and not;
that the metrics each run prints are exactly the ones BENCHMARK.json
lists; that a deliberately corrupted output counts as a failure; that
run.py fails cleanly without the simulator sources; and that
compare.py flags a synthetic regression and a digest mismatch and
passes identical inputs.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
WORKLOADS = ["short-jobs", "long-jobs", "livermore-c", "service-rt"]


def run_bench(*args):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"),
           "--seconds", "0.1"] + list(args)
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class WorkloadTest(unittest.TestCase):
    def run_tiny(self, workload, trace, *extra):
        proc = run_bench("--workload", workload, "--seed", "7", "--trace",
                         str(trace), "--tiny", *extra)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        return proc

    def test_each_workload_completes_and_names_match(self):
        spec = benchmark_spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = self.run_tiny(workload, trace)
                    result = last_json(proc.stdout)
                    self.assertEqual(list(result), ["correct", "attempted",
                                                    "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {n: m["unit"]
                           for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    prov = json.loads(
                        proc.stdout.strip().splitlines()[-2])["provenance"]
                    self.assertEqual(prov["workload"], workload)
                    self.assertEqual(prov["traced"], bool(trace))
                    self.assertFalse(prov["valid_baseline"])
                    if trace:
                        self.assertEqual(prov["traced_digest"],
                                         prov["digest"])

    def test_end_to_end_metrics_are_nonzero(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = last_json(self.run_tiny(workload, 0).stdout)
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_digest_repeats_for_a_seed(self):
        a = self.run_tiny("short-jobs", 0).stdout.splitlines()[-2]
        b = self.run_tiny("short-jobs", 0).stdout.splitlines()[-2]
        self.assertEqual(json.loads(a)["provenance"]["digest"],
                         json.loads(b)["provenance"]["digest"])

    def test_corrupted_output_counts_as_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = last_json(
                    self.run_tiny(workload, 0, "--corrupt").stdout)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_fails_without_simulator_sources(self):
        base = os.path.join(ROOT, ".bench_build")
        os.makedirs(base, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=base) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "short-jobs", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


def record(workload, seed, metrics, digest="d1", traced=False):
    return {"provenance": {"workload": workload, "seed": seed,
                           "traced": traced, "digest": digest,
                           "traced_digest": digest if traced else None},
            "result": {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {n: {"value": v, "unit": "x"}
                                   for n, v in metrics.items()}}}


class CompareTest(unittest.TestCase):
    def compare(self, old, new):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, recs in (("old.jsonl", old), ("new.jsonl", new)):
                path = os.path.join(tmp, name)
                with open(path, "w") as f:
                    for r in recs:
                        f.write(json.dumps(r) + "\n")
                paths.append(path)
            return subprocess.run(
                [sys.executable, os.path.join(BENCH, "compare.py")] + paths,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def side(self, jobs_per_s, digest="d1"):
        jitter = [1.0, 1.01, 0.99, 1.005, 0.995, 1.0, 1.002, 0.998]
        return [record("short-jobs", s + 1,
                       {"jobs_per_s": jobs_per_s * j, "setup_s": 0.01 * j},
                       digest)
                for s, j in enumerate(jitter)]

    def test_identical_inputs_pass(self):
        proc = self.compare(self.side(4000.0), self.side(4000.0))
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertNotIn("REGRESSION", proc.stdout)

    def test_synthetic_regression_is_flagged(self):
        proc = self.compare(self.side(4000.0), self.side(2000.0))
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)

    def test_wide_spread_is_unresolved(self):
        noisy = self.side(4000.0)
        for i, rec in enumerate(noisy):
            rec["result"]["metrics"]["jobs_per_s"]["value"] *= \
                0.5 if i % 2 else 1.5
        proc = self.compare(self.side(4000.0), noisy)
        self.assertIn("unresolved", proc.stdout)
        self.assertNotIn("REGRESSION", proc.stdout)

    def test_digest_mismatch_is_a_hard_failure(self):
        proc = self.compare(self.side(4000.0), self.side(4000.0, "d2"))
        self.assertEqual(proc.returncode, 2, proc.stdout)
        self.assertIn("DIGEST MISMATCH", proc.stdout)

    def test_traced_replay_mismatch_is_a_hard_failure(self):
        old = self.side(4000.0)
        bad = copy.deepcopy(old[0])
        bad["provenance"]["traced"] = True
        bad["provenance"]["traced_digest"] = "other"
        proc = self.compare(old, old + [bad])
        self.assertEqual(proc.returncode, 2, proc.stdout)


if __name__ == "__main__":
    unittest.main()
