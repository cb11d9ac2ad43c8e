"""Fast self-test of the benchmark at tiny input sizes.

    python3 benchmarks/selftest.py

Runs every workload of BENCHMARK.json with tracing off and on, and checks
that each run passes its correctness checks and emits exactly the metrics
BENCHMARK.json names, with their units. Also checks that the output checks
catch broken outputs, and that the benchmark fails without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from workloads import (ROOT, Context, digest_problem, read_graph, row_problem,
                       undominated)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--seed", "3",
         "--seconds", "0.1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


class TestRuns(unittest.TestCase):
    def check_run(self, workload: str, trace: int, spec_key: str) -> None:
        proc = bench("--workload", workload, "--trace", str(trace),
                     "--scale", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertIs(result["correct"], True, proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertNotIsInstance(m["value"], bool, name)
            self.assertIn(f"{workload} {name} = ", proc.stdout)

    def test_end_to_end_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 0, "end_to_end")

    def test_per_layer_metrics(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_run(w["name"], 1, "per_layer")

    def test_fails_without_sources(self):
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(bare) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", SPEC["workloads"][0]["name"],
                         "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


ROW = {"opt_cost": "3", "opt_proven": "true", "min_cost": "3",
       "mean_cost": "3.5", "max_cost": "4", "mean_passes": "1.5",
       "poa_exact": "", "pos_exact": ""}


class TestChecks(unittest.TestCase):
    def test_row_invariants(self):
        self.assertIsNone(row_problem(ROW))
        broken = [{"min_cost": "2"}, {"opt_proven": "false"},
                  {"mean_cost": "5"}, {"mean_passes": "4"},
                  {"poa_exact": "1.5", "pos_exact": "2"},
                  {"poa_exact": "1.5", "pos_exact": "0.5"}]
        for change in broken:
            with self.subTest(change=change):
                self.assertIsNotNone(row_problem({**ROW, **change}))

    def test_domination(self):
        path = ROOT / ".bench_out" / "selftest_path.txt"
        path.parent.mkdir(exist_ok=True)
        path.write_text("10 11\n11 12\n12 13\n13 14\n")   # a 5-node path
        try:
            adj = read_graph(path)
        finally:
            path.unlink()
        self.assertEqual(undominated(adj, 1, [1, 3]), 0)
        self.assertEqual(undominated(adj, 1, [1]), 2)
        self.assertEqual(undominated(adj, 2, [2]), 0)

    def test_pins(self):
        self.assertIsNotNone(digest_problem(b"x", "0" * 64))
        self.assertIsNone(digest_problem(b"x", None))
        self.assertIsNotNone(Context(0, "full", ROOT).pin("table3_karate"))
        self.assertIsNone(Context(1, "full", ROOT).pin("table3_karate"))
        self.assertIsNotNone(Context(1, "full", ROOT).pin("sggac"))
        self.assertIsNone(Context(0, "tiny", ROOT).pin("sggac"))


if __name__ == "__main__":
    unittest.main()
