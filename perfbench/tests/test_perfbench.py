"""Tests of the end-to-end benchmark: BENCHMARK.json, the output schema,
tiny-size smokes of every workload and their correctness checks.

    python3 -m unittest discover -s perfbench/tests -v

The smokes build the benchmark first (as perfbench/run.py always does).
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench_run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, seed=1, extra=(), cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, str(RUN) if cwd == ROOT else "perfbench/run.py",
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--tiny", *extra],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.splitlines()[-1])


class BenchmarkJson(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["command"][:2], ["python3", "perfbench/run.py"])
        self.assertEqual(SPEC["paths"], ["perfbench"])
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})

    def test_names_and_units_are_valid_and_unique(self):
        names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]] + [
            m["name"] for m in SPEC["per_layer"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))

    def test_setup_metric_has_the_largest_bound(self):
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class Smoke(unittest.TestCase):
    """Each workload at tiny size, untraced and traced."""

    results = {}

    @classmethod
    def result(cls, workload, trace):
        key = (workload, trace)
        if key not in cls.results:
            proc = run(workload, trace)
            if proc.returncode != 0:
                raise AssertionError(f"{key} exited {proc.returncode}:\n"
                                     f"{proc.stdout}\n{proc.stderr}")
            cls.results[key] = (proc.stdout.splitlines(), result_of(proc))
        return cls.results[key]

    def check_schema(self, workload, trace):
        lines, result = self.result(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertIsInstance(result["failed"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"]
                    for m in SPEC["per_layer" if trace else "end_to_end"]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], (int, float))
        return lines, result

    def test_end_to_end_schema_and_checks_pass(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = self.check_schema(workload, 0)
                self.assertTrue(result["correct"], "\n".join(lines))
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["metrics"]["ok_frac"]["value"], 1)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])
                self.assertTrue(any(l.startswith(f"digest {workload} ")
                                    for l in lines))

    def test_per_layer_schema_and_self_times(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = self.check_schema(workload, 1)
                self.assertTrue(result["correct"], "\n".join(lines))
                metrics = result["metrics"]
                for name in ("sim.events", "obs.self_ms.sim_run",
                             "obs.self_ms.generation", "obs.self_ms.sink",
                             "obs.self_ms.journal", "core.ns_per_event"):
                    self.assertGreater(metrics[name]["value"], 0, name)
        timeline = json.loads(
            (perfbench_run.build_dir() / "timelines" / "fig3.json").read_text())
        names = {e.get("name") for e in timeline["traceEvents"]}
        self.assertTrue({"sim.run", "sweep.job", "bench.factory",
                         "bench.sink"} <= names)

    def test_same_seed_repeats_exactly(self):
        lines, first = self.result("fig3", 0)
        again = run("fig3", 0)
        second = result_of(again)
        digest = [l for l in lines if l.startswith("digest ")]
        self.assertEqual(digest, [l for l in again.stdout.splitlines()
                                  if l.startswith("digest ")])
        for name in ("sim_speedup", "pf_evict_ratio"):
            self.assertEqual(first["metrics"][name], second["metrics"][name])


class BrokenChecks(unittest.TestCase):
    """A deliberately inverted check must reach failed and ok_frac."""

    def test_each_workload_reports_a_failing_check(self):
        for workload, check in (("fig3", "fig3.allarm_pf_evictions"),
                                ("region-replay",
                                 "region-replay.r4096_pf_evictions"),
                                ("serve", "serve.all_done")):
            with self.subTest(check=check):
                proc = run(workload, extra=("--break-check", check))
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLess(result["metrics"]["ok_frac"]["value"], 1)
                self.assertIn(f"check FAIL {check}", proc.stdout)


class StandAlone(unittest.TestCase):
    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {"PATH": "/usr/bin:/bin",
                   "CARGO_TARGET_DIR": str(Path(tmp) / ".bench_build")}
            proc = run("fig3", cwd=tmp, env=env)
            self.assertNotEqual(proc.returncode, 0)
            last = (proc.stdout.strip().splitlines() or [""])[-1]
            self.assertFalse(last.startswith("{"), proc.stdout)


class Steadiness(unittest.TestCase):
    """The spread and comparison rules of run.py --steady."""

    @staticmethod
    def runs(values, seed0=1, digest="d"):
        return [{"workload": "w", "seed": seed0 + i, "trace": 0,
                 "digest": digest,
                 "result": {"failed": 0, "metrics": {
                     "t": {"value": v, "unit": "ms"},
                     "sim_speedup": {"value": 1.03, "unit": "x"}}}}
                for i, v in enumerate(values)]

    def test_spread_matches_statistics_quantiles(self):
        med, q1, q3 = perfbench_run.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))

    def test_compare_flags_a_regression_beyond_the_bound(self):
        old = self.runs([100, 101, 99, 100, 100])
        metric = {"name": "t", "better": "lower", "bound": 0.05}
        self.assertIn("unchanged", perfbench_run.compare(old, "w", metric, 102))
        self.assertIn("WORSE", perfbench_run.compare(old, "w", metric, 110))
        noisy = self.runs([50, 150, 80, 120, 100])
        self.assertIn("unresolved",
                      perfbench_run.compare(noisy, "w", metric, 103))

    def test_exact_match_catches_a_changed_digest(self):
        old = self.runs([1, 2, 3])
        self.assertTrue(perfbench_run.exact_match(old, self.runs([4, 5, 6])))
        self.assertFalse(perfbench_run.exact_match(
            old, self.runs([1, 2, 3], digest="other")))


if __name__ == "__main__":
    unittest.main()
