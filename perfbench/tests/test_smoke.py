"""Smoke tests of the benchmark itself, at tiny workload sizes.

Run from the repository root:
    python3 -m unittest discover -s perfbench/tests
"""

import dataclasses
import json
import re
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _library_attributes() -> dict:
    """Every attribute of every traced module and of the classes defined there."""
    snapshot = {}
    for layer in tracer.LAYERS:
        mod = tracer.module(layer)
        for name, value in vars(mod).items():
            snapshot[(layer, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, raw in vars(value).items():
                    snapshot[(layer, name, attr)] = raw
    return snapshot


class WorkloadTest(unittest.TestCase):
    def test_names_agree(self):
        self.assertEqual(run.WORKLOADS, tuple(w["name"] for w in _bench()["workloads"]))

    def test_every_workload_passes_its_output_check(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                first = worker.sample(name, seed=3, tiny=True)
                again = worker.sample(name, seed=3, tiny=True, digest=first["digest"])
                self.assertEqual(first["failures"], [])
                self.assertEqual(again["failures"], [])

    def test_a_changed_output_fails_the_run(self):
        result = worker.sample("weak-depletion", seed=3, tiny=True, digest="0" * 64)
        self.assertIn("output differs from the first run of this seed", result["failures"])

    def test_measure_alternates_runs_references_and_probes(self):
        deadline = run.time.monotonic() + run.RUN_LIMIT_S
        measured = run.measure("srv-abundant", seed=3, seconds=0, deadline=deadline)
        self.assertEqual(len(measured["samples"]), run.MIN_SAMPLES)
        self.assertEqual(len(measured["setup_s"]), run.SETUP_PROBES)
        for sample in measured["samples"]:
            self.assertEqual(sample["failures"], [])
            self.assertGreater(sample["ref_s"], 0)
        self.assertGreater(measured["peak_rss_mb"], 0)

    def test_check_rejects_a_wrong_outcome(self):
        weak = workloads.prepare("weak-depletion", seed=3, tiny=True)()
        failures = workloads.check("clt-depletion", weak)
        self.assertTrue(any("bound violations" in f for f in failures), failures)
        bounded = workloads.prepare("clt-depletion", seed=3, tiny=True)()
        failures = workloads.check("weak-depletion", bounded)
        self.assertTrue(any("no bound violation" in f for f in failures), failures)
        bounded.report.converged = False
        bounded.report.attempted += 1
        self.assertEqual(len(workloads.check("clt-depletion", bounded)), 2)
        checked = workloads.prepare("check-n3", seed=3, tiny=True)()
        probe = dataclasses.replace(checked.verdict.probe, state_hash="0" * 64)
        checked.verdict = dataclasses.replace(checked.verdict, probe=probe)
        failures = workloads.check("check-n3", checked)
        self.assertTrue(any("replay" in f for f in failures), failures)


class TraceTest(unittest.TestCase):
    def test_traced_run_restores_the_originals(self):
        before = _library_attributes()
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                worker.trace(name, seed=3, tiny=True)
                after = _library_attributes()
                self.assertEqual(before.keys(), after.keys())
                changed = [k for k in before if before[k] is not after[k]]
                self.assertEqual(changed, [])

    def test_originals_are_restored_when_the_run_raises(self):
        before = _library_attributes()
        with self.assertRaises(RuntimeError):
            with tracer.traced(tracer.Tracer()):
                raise RuntimeError("boom")
        after = _library_attributes()
        self.assertEqual([k for k in before if before[k] is not after[k]], [])

    def test_traced_runs_pass_their_checks(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                result = worker.trace(name, seed=3, tiny=True)
                for sample in result["samples"]:
                    self.assertEqual(sample["failures"], [])
                self.assertEqual(result["samples"][0]["digest"], result["samples"][1]["digest"])


class MetricNameTest(unittest.TestCase):
    def _check_names(self, emitted, declared):
        for name in emitted:
            self.assertIsNotNone(NAME.fullmatch(name), name)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(sorted(emitted), sorted(m["name"] for m in declared))
        units = {m["name"]: m["unit"] for m in declared}
        for name, (_, unit) in emitted.items():
            self.assertEqual(unit, units[name], name)

    def test_end_to_end_names(self):
        bench = _bench()
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                sample = dict(worker.sample(name, seed=3, tiny=True), ref_s=run.REF_NOMINAL_S)
                measured = {"samples": [sample], "setup_s": [0.1], "peak_rss_mb": 20.0}
                self._check_names(run.end_to_end(measured), bench["end_to_end"])

    def test_per_layer_names(self):
        bench = _bench()
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                metrics = worker.trace(name, seed=3, tiny=True)["metrics"]
                self._check_names(metrics, bench["per_layer"])


if __name__ == "__main__":
    unittest.main()
