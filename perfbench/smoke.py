#!/usr/bin/env python3
"""Smoke test of the benchmark harness at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced at a tiny size and checks that the
result line carries exactly the metrics BENCHMARK.json names; checks that a
deliberately wrong reference output is counted as a failure, so the
correctness gate is not vacuous; and checks that the harness refuses to run,
without printing a result, where the program's sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class ResultLine(unittest.TestCase):
    def check(self, trace: int, expected: list[dict]):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(
                    {name: m["unit"] for name, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in expected},
                )
                record = json.loads(proc.stdout.splitlines()[-2])["record"]
                self.assertEqual(record["seed"], 3)
                self.assertEqual(record["traced"], bool(trace))
                if not trace:
                    self.assertGreaterEqual(record["probe"]["samples"], 2)
                    self.assertEqual(set(record["raw"]), {"items_per_s", "item_p50_ms",
                                                          "item_p90_ms", "setup_s"})

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


class Gate(unittest.TestCase):
    """A wrong reference must fail items; the right one must fail none."""

    def gate_with(self, workload, wrong: bool):
        program, rounds, _, _ = run.set_up(workload, 5, 1, run.OUT / "smoke-inputs")
        try:
            done, _ = run.drive(program, workload, rounds[:1])
            if wrong:
                real = workload.reference
                workload.reference = lambda *a: "wrong " + str(real(*a))
            return run.gate(program, workload, done)
        finally:
            shutil.rmtree(run.OUT / "smoke-inputs", ignore_errors=True)

    def test_wrong_reference_is_counted(self):
        for name, cls in run.WORKLOADS.items():
            with self.subTest(workload=name):
                attempted, failed, _ = self.gate_with(cls(tiny=True), wrong=False)
                self.assertEqual(failed, 0)
                attempted, failed, examples = self.gate_with(cls(tiny=True), wrong=True)
                self.assertGreater(failed / attempted, 0)
                self.assertTrue(examples)


class MissingSource(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = run.OUT / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = bench("survey", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()
