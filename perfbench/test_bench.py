#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the repository root (about three minutes on 2 vCPUs):

    python3 perfbench/test_bench.py

They check that every workload prints exactly the metrics BENCHMARK.json
declares, with its units; that the count metrics of the traced run repeat
exactly across runs and between pooled and sequential execution; that the
replay-fidelity checks and oracles pass; and that each run records the
calibration loop before and after.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("build-cold", "grid", "serve-closed")

# Counts that depend only on the work done, never on timing or workers.
EXACT_COUNTS = (
    "core.cache_hits", "core.cache_misses", "core.cache_hit_frac",
    "core.loocv_cache_hits", "core.loocv_cache_misses", "core.samples_built",
    "core.quarantined", "serve.answered", "serve.rejected", "serve.degraded",
    "serve.partials", "par.retries", "par.timeouts", "par.crashes",
    "par.failures", "par.degraded",
)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


_runs = {}


def run(workload, trace, seed=1, seconds=2, sequential=False):
    key = (workload, trace, seed, seconds, sequential)
    if key not in _runs:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        if sequential:
            cmd.append("--sequential")
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if p.returncode != 0:
            raise AssertionError(
                "%s failed (%d): %s" % (cmd, p.returncode, p.stderr[-3000:]))
        lines = p.stdout.splitlines()
        _runs[key] = (json.loads(lines[-1]), lines[:-1])
    return _runs[key]


class Names(unittest.TestCase):
    def check(self, trace, declared):
        for w in WORKLOADS:
            result, _ = run(w, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, {m["name"]: m["unit"] for m in declared}, w)
            for k, v in result["metrics"].items():
                self.assertIsInstance(v["value"], (int, float), (w, k))

    def test_end_to_end_names_and_units(self):
        self.check(0, spec()["end_to_end"])

    def test_per_layer_names_and_units(self):
        self.check(1, spec()["per_layer"])

    def test_workloads_match_spec(self):
        self.assertEqual(tuple(w["name"] for w in spec()["workloads"]), WORKLOADS)


class Results(unittest.TestCase):
    def test_oracles_pass(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                result, _ = run(w, trace)
                self.assertTrue(result["correct"], (w, trace))
                self.assertEqual(result["failed"], 0, (w, trace))
                if trace == 0:
                    self.assertEqual(result["metrics"]["ok_frac"]["value"], 1, w)

    def test_calibration_before_and_after(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                _, lines = run(w, trace)
                for label in ("before", "after"):
                    self.assertTrue(
                        any(l.startswith("calibration %s:" % label) for l in lines),
                        (w, trace, label))

    def test_counts_repeat_across_runs_and_pool_modes(self):
        for w in WORKLOADS:
            first, _ = run(w, 1)
            again, _ = run(w, 1, seed=1, seconds=3)
            sequential, _ = run(w, 1, sequential=True)
            for other in (again, sequential):
                self.assertTrue(other["correct"], w)
                for name in EXACT_COUNTS:
                    self.assertEqual(
                        first["metrics"][name]["value"],
                        other["metrics"][name]["value"], (w, name))


if __name__ == "__main__":
    unittest.main(verbosity=2)
