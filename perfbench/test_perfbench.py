#!/usr/bin/env python3
"""The benchmark's own tests: metric hygiene and the digest gate.

    python3 perfbench/test_perfbench.py        # from the repository root

Every case runs run.py on smoke-sized instances (seconds per run), so the
whole file takes about a minute plus the first build.
"""

import itertools
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, seed=7, extra=(), cwd=ROOT, env=None):
    """Runs run.py; returns (exit code, last stdout object or None, detail)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    out = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = next((json.loads(line.split(": ", 1)[1])
                   for line in out.stderr.splitlines()
                   if line.startswith("perfbench detail: ")), None)
    return out.returncode, result, detail


def near_power_of_ten(x):
    return x > 0 and abs(math.log10(x) - round(math.log10(x))) < 1e-9


class MetricHygiene(unittest.TestCase):
    def check(self, trace, key):
        declared = {m["name"]: m for m in BENCH[key]}
        for workload in WORKLOADS:
            code, result, detail = run(workload, trace)
            self.assertEqual(code, 0, detail)
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertTrue(result["correct"])
            self.assertGreaterEqual(result["attempted"], 1)
            metrics = result["metrics"]
            # Every workload emits exactly the declared set, in its units.
            self.assertEqual(set(metrics), set(declared), workload)
            for name, m in metrics.items():
                self.assertEqual(m["unit"], declared[name]["unit"], name)
                self.assertIsInstance(m["value"], (int, float))
            # A percentile is emitted only with ten samples beyond it.
            for name, pct in detail["percentiles"].items():
                self.assertGreaterEqual(pct["beyond"], 10, (workload, name))

    def test_end_to_end_names_and_units(self):
        self.check(0, "end_to_end")

    def test_per_layer_names_and_units(self):
        self.check(1, "per_layer")

    def test_end_to_end_never_zero(self):
        for workload in WORKLOADS:
            _, result, _ = run(workload, 0, seed=5)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, (workload, name))

    def test_no_end_to_end_copy_or_reciprocal(self):
        for workload in WORKLOADS:
            _, result, _ = run(workload, 0, seed=11)
            values = {n: m["value"] for n, m in result["metrics"].items()}
            for (a, x), (b, y) in itertools.combinations(values.items(), 2):
                self.assertFalse(near_power_of_ten(x / y), (workload, a, b))
                self.assertFalse(near_power_of_ten(x * y), (workload, a, b))


class ManifestCheck(unittest.TestCase):
    def test_missing_undeclared_or_misunited_metric_is_refused(self):
        sys.path.insert(0, str(HERE))
        import run as runner
        full = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                for m in BENCH["end_to_end"]}
        self.assertIsNone(runner.check_manifest(full, 0))
        first = BENCH["end_to_end"][0]["name"]
        missing = {n: m for n, m in full.items() if n != first}
        extra = dict(full, bogus={"value": 1.0, "unit": "s"})
        misunited = dict(full, **{first: {"value": 1.0, "unit": "bogus"}})
        for metrics in (missing, extra, misunited):
            self.assertIsNotNone(runner.check_manifest(metrics, 0))
        self.assertIsNotNone(runner.check_manifest(full, 1))


class Clocks(unittest.TestCase):
    def test_shard_speedup_is_a_wall_time_ratio(self):
        # Timed on the calling thread's CPU clock, the nproc-shard replay
        # would count only the caller's share and read close to nproc
        # whatever the real scaling; in wall time it cannot exceed nproc.
        code, result, detail = run("giant", 1)
        self.assertEqual(code, 0, detail)
        speedup = result["metrics"]["core.shard.speedup"]["value"]
        self.assertGreater(speedup, 0.0)
        self.assertLessEqual(speedup, detail["host"]["nproc"])


class DigestGate(unittest.TestCase):
    def test_passes_agree_on_another_seed(self):
        for workload in WORKLOADS:
            code0, r0, d0 = run(workload, 0, seed=23)
            code1, r1, d1 = run(workload, 1, seed=23)
            self.assertEqual((code0, code1), (0, 0), (d0, d1))
            self.assertEqual(r1["failed"], 0, d1["errors"])
            self.assertEqual(d0["digest"], d1["digest"], workload)

    def test_pinned_seed_passes_and_a_perturbed_pin_fails(self):
        pins = json.loads((HERE / "digests.json").read_text())
        with tempfile.TemporaryDirectory() as tmp:
            bad = pathlib.Path(tmp) / "digests.json"
            for workload in WORKLOADS:
                code, result, _ = run(workload, 0, seed=pins["seed"])
                self.assertEqual(code, 0)
                self.assertEqual(result["failed"], 0)
                perturbed = json.loads(json.dumps(pins))
                perturbed["smoke"][workload] = perturbed["smoke"][
                    workload].replace("items=", "items=1")
                bad.write_text(json.dumps(perturbed))
                code, result, _ = run(workload, 0, seed=pins["seed"],
                                      extra=("--pinned", str(bad)))
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)


class Packaging(unittest.TestCase):
    def test_fails_cleanly_without_the_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, pathlib.Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            cmd = [*BENCH["command"], "--workload", "giant",
                   "--seed", "1", "--seconds", "1", "--trace", "0"]
            out = subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
