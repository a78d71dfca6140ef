"""Self-tests of the benchmark (not of flowspec).

    python3 flowbench/selftest.py

Checks that tampered or wrong outputs count as failed operations, that seeds
draw parameters inside the stated ranges and pass every check, that
``BENCHMARK.json`` agrees with the workload and layer tables in
``workloads.py``, that the tracer nests and measures spans, and that the
benchmark refuses to run without the flowspec sources.  Takes about a minute.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402
from workloads import LAYERS, WORKLOADS  # noqa: E402

ROOT = bench_run.ROOT
sys.path.insert(0, str(bench_run.SRC))

SEEDS = (3, 11)


def _without_seeded(workload, config: dict) -> dict:
    """The config with every seed-drawn value removed: what sizes the problem."""
    cfg = copy.deepcopy(config)
    for key in workload.ranges:
        del cfg["model"]["params"][key]
    cfg.get("simulate", {}).pop("seed", None)
    return cfg


class WorkDir(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory(dir=ROOT, prefix=".flowbench-test-")
        self.work = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()


class TamperedOutputs(WorkDir):
    def setUp(self):
        super().setUp()
        self.bench = bench_run.Bench(WORKLOADS["verdict_sweep"], 5, self.work)
        _, self.data = self.bench.op()
        self.assertIsNotNone(self.data, self.bench.problems)

    def test_one_changed_report_byte_fails_the_operation(self):
        import flowspec.reporting as reporting

        honest = reporting.canonical_json

        def tampered(obj):
            text = honest(obj)
            return text[:10] + ("0" if text[10] != "0" else "1") + text[11:]

        with mock.patch.object(reporting, "canonical_json", tampered):
            _, data = self.bench.op()
        self.assertIsNone(data)
        self.assertEqual(self.bench.failed, 1)
        self.assertIn("report.json", self.bench.problems[-1])

    def test_changed_file_on_disk_is_caught(self):
        path = self.bench.out / "report.json"
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 1
        path.write_bytes(bytes(raw))
        self.assertTrue(self.bench.verify(self.data))

    def test_forced_wrong_verdict_fails_the_operation(self):
        import flowspec.reporting as reporting

        honest = reporting.classify_phase

        def wrong(*args, **kwargs):
            return dataclasses.replace(honest(*args, **kwargs), verdict="Q-broken")

        with mock.patch.object(reporting, "classify_phase", wrong):
            _, data = self.bench.op()
        self.assertIsNone(data)
        self.assertEqual(self.bench.failed, 1)
        self.assertTrue(any("verdict" in p for p in self.bench.problems))

    def test_each_check_rejects_its_wrong_value(self):
        bad = copy.deepcopy(self.data)
        bad["results"]["morse"]["splitting_scan"]["n_minima"] = 3
        bad["results"]["witten"]["zero_modes_per_degree"] = [2, 2]
        problems = WORKLOADS["verdict_sweep"].check(bad)
        self.assertEqual(len(problems), 2, problems)


class SeedsInRangeAndCorrect(WorkDir):
    def test_two_seeds_per_workload(self):
        for name, workload in WORKLOADS.items():
            configs = []
            for seed in SEEDS:
                with self.subTest(workload=name, seed=seed):
                    params = workload.params(seed)
                    self.assertEqual(set(params), set(workload.ranges))
                    for key, value in params.items():
                        lo, hi = workload.ranges[key]
                        self.assertTrue(lo <= value <= hi, (key, value))
                    self.assertEqual(workload.config(seed), workload.config(seed))
                    configs.append(workload.config(seed))
                    bench = bench_run.Bench(workload, seed, self.work)
                    bench.op()
                    self.assertEqual(bench.failed, 0, bench.problems)
            self.assertNotEqual(configs[0], configs[1])
            self.assertEqual(_without_seeded(workload, configs[0]),
                             _without_seeded(workload, configs[1]))


class BenchmarkJsonAgreesWithTables(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_keys_and_workloads(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(WORKLOADS))
        for entry in self.spec["workloads"]:
            why = WORKLOADS[entry["name"]].why
            self.assertEqual(entry["why"], why)
            self.assertLessEqual(len(why), 200)
            self.assertNotIn("\n", why)

    def test_end_to_end(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual({k: m["unit"] for k, m in e2e.items()}, bench_run.E2E_UNITS)
        bounds = {k: m["bound"] for k, m in e2e.items()}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()), bounds)
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertEqual(e2e["setup_s"]["better"], "lower")

    def test_layer_map(self):
        per_layer = {m["name"]: m for m in self.spec["per_layer"]}
        self.assertEqual(list(per_layer), list(LAYERS))
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        for name, layer in LAYERS.items():
            with self.subTest(metric=name):
                self.assertEqual(per_layer[name]["unit"], layer.unit)
                self.assertEqual(per_layer[name]["better"], layer.better)
                self.assertTrue(set(layer.workloads) <= set(WORKLOADS))
                self.assertTrue(set(layer.moves) <= e2e)
                for workloads in layer.moves.values():
                    self.assertTrue(set(workloads) <= set(layer.workloads))


class TracerSpans(unittest.TestCase):
    def test_nesting_totals_and_coverage(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                with tracer.span("b"):
                    pass
            with tracer.span("b"):
                pass
        self.assertEqual(tracer.count("b"), 2)
        self.assertLess(tracer.total("b", under="a"), tracer.total("b"))
        self.assertGreater(tracer.coverage(root), 0)
        self.assertLessEqual(tracer.coverage(root), 1)

    def test_memory_peak_reaches_the_parent(self):
        tracer = Tracer(memory=True)
        tracemalloc.start()
        try:
            with tracer.span("outer"):
                with tracer.span("inner"):
                    block = bytearray(4_000_000)
                    del block
                kept = bytearray(1_000_000)
        finally:
            tracemalloc.stop()
        outer, inner = tracer.first("outer"), tracer.first("inner")
        self.assertGreaterEqual(inner.peak_mb, 4.0)
        self.assertGreaterEqual(outer.peak_mb, inner.peak_mb)
        self.assertLess(inner.held_mb, 0.5)
        self.assertGreaterEqual(outer.held_mb, 1.0)
        del kept

    def test_instrument_restores_the_originals(self):
        import flowspec.reporting as reporting

        before = reporting.full_spectrum
        with instrument(Tracer()):
            self.assertIsNot(reporting.full_spectrum, before)
        self.assertIs(reporting.full_spectrum, before)


class BareDirectory(WorkDir):
    def test_refuses_without_sources(self):
        shutil.copy(ROOT / "BENCHMARK.json", self.work / "BENCHMARK.json")
        shutil.copytree(HERE, self.work / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "spectrum_torus",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=self.work, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("{", done.stdout)


if __name__ == "__main__":
    unittest.main()
