"""Self-checks of the benchmark.

    python3 -m unittest discover -s perfbench     (or: python3 -m pytest perfbench)

They cover a smoke size of every workload, the output checks, the span
accounting of the traced run, and the agreement between BENCHMARK.json and
what the benchmark prints.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from vcsim import scenario, simulation  # noqa: E402

SMOKE_SCALE = 0.05


class TempDirTest(unittest.TestCase):
    def setUp(self) -> None:
        self.workdir = Path(tempfile.mkdtemp(prefix="perfbench-test-"))
        self.addCleanup(shutil.rmtree, self.workdir, True)


class SmokeTest(TempDirTest):
    def test_every_workload_runs_clean_at_smoke_size(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workdir = self.workdir / name
                workdir.mkdir()
                workload = workloads.make_workload(name, 3, workdir, SMOKE_SCALE)
                m = run.measure(workload, 0)
                self.assertGreater(m.attempted, 0)
                self.assertEqual(m.failed, 0)
                values = run.end_to_end(m)
                self.assertEqual(set(values), set(run.END_TO_END))
                for metric, value in values.items():
                    self.assertGreater(value, 0, metric)

    def test_a_wrong_output_counts_as_failed(self):
        workload = workloads.make_workload("case-long", 3, self.workdir, SMOKE_SCALE)
        artifacts = simulation.run_scenario(scenario.load_scenario(workload.path))
        next(iter(artifacts.inventories.values())).samples.append((1.0, -1.0))
        with self.assertRaises(workloads.CheckFailed):
            workloads.check_run(artifacts)


class TraceTest(TempDirTest):
    def test_layer_self_times_account_for_the_traced_run(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workdir = self.workdir / name
                workdir.mkdir()
                workload = workloads.make_workload(name, 3, workdir, SMOKE_SCALE)
                tracer = spans.Tracer()
                tracer.install()
                try:
                    m = run.measure(workload, 0, tracer)
                finally:
                    tracer.uninstall()
                self.assertEqual(m.failed, 0)
                for layers, unit in zip(m.layers, m.units):
                    accounted = sum(layers[f"layer.{mod}.self_s"] for mod in spans.MODULES)
                    self.assertAlmostEqual(
                        accounted + layers["trace.unaccounted_s"], layers["trace.run_s"],
                        delta=1e-9 * len(tracer.spans) + 1e-9,
                    )
                    self.assertLess(layers["trace.unaccounted_s"], 0.05 * layers["trace.run_s"])
                    self.assertGreaterEqual(layers["trace.run_s"], unit.run_s)
                    self.assertGreater(layers["engine.events"], 0)
                    self.assertGreater(layers["ledger.open_orders.calls"], 0)
                derived = set(spans.PER_LAYER) - {
                    "engine.bare_us_per_event", "trace.overhead_ratio"
                }
                self.assertLessEqual(derived, set(m.layers[0]))

    def test_uninstall_restores_the_program(self):
        from vcsim import actors, engine, ledger

        owners = [actors, engine, ledger, scenario, simulation,
                  actors.Chain, engine.Engine, ledger.Ledger, scenario.Scenario]
        before = [dict(vars(owner)) for owner in owners]
        tracer = spans.Tracer()
        tracer.install()
        self.assertIsNot(simulation.run_scenario, before[4]["run_scenario"])
        tracer.uninstall()
        self.assertEqual([dict(vars(owner)) for owner in owners], before)

    def test_bare_engine_times_the_given_periodics(self):
        self.assertGreater(spans.bare_engine_us_per_event([("a", "tick", 1.0)], events=200), 0)


class ContractTest(TempDirTest):
    def test_benchmark_json_names_what_the_benchmark_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}, spans.PER_LAYER
        )

    def test_refuses_to_run_without_the_program(self):
        shutil.copy(ROOT / "BENCHMARK.json", self.workdir)
        shutil.copytree(HERE, self.workdir / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "case-long",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=self.workdir, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
