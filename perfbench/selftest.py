#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark's output contract.

    python3 perfbench/selftest.py

Run from the repository root. Builds the binary through run.py and runs
every workload for one second, untraced and traced. It checks that:
- the last line parses and has exactly the result keys;
- every metric BENCHMARK.json names is emitted, with its unit;
- fail_ratio and the runtime's reject/abandon counts are 0;
- the exact counts repeat between two traced runs with one seed;
- core.mc_* is the same for every seed.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_PREFIXES = ("election.ak.", "election.bk.", "core.mc_configs",
                  "core.mc_transitions", "core.mc_terminal",
                  "runtime.fires", "runtime.sends")
ENV_KEYS = {"nproc", "compiler", "build_type", "seed", "seconds", "trace",
            "workload"}


def run(workload, seed, trace):
    """Runs the benchmark once; returns (env record, result)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


class ContractTest(unittest.TestCase):
    def check_result(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(emitted, {m["name"]: m["unit"] for m in expected})
        for name, metric in result["metrics"].items():
            self.assertEqual(set(metric), {"value", "unit"}, name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                env, result = run(workload, 3, 0)
                self.assertLessEqual(ENV_KEYS, set(env))
                self.assertEqual(env["workload"]["name"], workload)
                self.check_result(result, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_emit_every_layer_metric_and_repeat_counts(self):
        mc_counts = set()
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = run(workload, 5, 1)
                _, second = run(workload, 5, 1)
                for result in (first, second):
                    self.check_result(result, SPEC["per_layer"])
                    metrics = result["metrics"]
                    for zero in ("fail_ratio", "runtime.wire_rejects",
                                 "runtime.sends_abandoned"):
                        self.assertEqual(metrics[zero]["value"], 0, zero)
                for name, metric in first["metrics"].items():
                    if name.startswith(EXACT_PREFIXES):
                        self.assertEqual(metric["value"],
                                         second["metrics"][name]["value"],
                                         name)
                mc_counts.add(tuple(first["metrics"][name]["value"] for name in
                                    ("core.mc_configs", "core.mc_transitions",
                                     "core.mc_terminal")))
        _, other_seed = run(WORKLOADS[0], 6, 1)
        mc_counts.add(tuple(other_seed["metrics"][name]["value"] for name in
                            ("core.mc_configs", "core.mc_transitions",
                             "core.mc_terminal")))
        self.assertEqual(len(mc_counts), 1, mc_counts)


if __name__ == "__main__":
    unittest.main(verbosity=2)
