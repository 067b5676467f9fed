"""Self-tests of the benchmark: tiny-scale runs and tampered results.

Usage, from the repository root: ``python3 perfbench/selftest.py``.

Every workload runs at tiny scale and must pass its own checks; then a
deliberately tampered result must trip each check, which shows the
checks have power rather than merely existing.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.sweep_workload import fused_sweep  # noqa: E402
from perfbench import layers, manifest, run, tracing, workloads  # noqa: E402
from repro.analysis.metrics import ProportionEstimate  # noqa: E402
from repro.scenarios import open as open_module  # noqa: E402
from repro.scenarios import runner, sweep  # noqa: E402

WORKDIR = BENCH / ".work" / "selftest"
SEED = 11


def tampered(result):
    """A closed result with one success fewer."""
    success = result.success
    return dataclasses.replace(
        result,
        success=ProportionEstimate(successes=success.successes - 1, trials=success.trials),
    )


class TinyWorkloadChecks:
    """Shared cases; each subclass names one workload class."""

    workload_class: type[workloads.Workload]

    @classmethod
    def setUpClass(cls) -> None:
        cls.workdir = WORKDIR / cls.workload_class.name
        cls.workload = cls.workload_class(SEED, True, cls.workdir)
        cls.first = cls.workload.op()
        cls.workload.after_op(cls.first)
        cls.setup_problems = cls.workload.reference_problems(cls.first)

    @classmethod
    def tearDownClass(cls) -> None:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    def fresh(self):
        outcome = self.workload.op()
        self.workload.after_op(outcome)
        return outcome

    def test_tiny_run_passes_its_checks(self) -> None:
        self.assertEqual(self.setup_problems, [])
        self.assertEqual(self.workload.check(self.first), [])
        self.assertEqual(self.workload.check(self.fresh()), [])
        self.assertGreater(self.first.trial_rounds, 0)

    def test_traced_op_matches_untraced(self) -> None:
        tracer = tracing.Tracer()
        with tracer.span("op"):
            outcome = self.workload.traced_op(tracer)
        self.workload.after_op(outcome)
        self.assertEqual(self.workload.check(outcome), [])
        self.assertGreater(len(tracer.spans), 1)

    def test_traced_counts_repeat_exactly(self) -> None:
        counts = []
        for _ in range(2):
            tracer = tracing.Tracer()
            with tracer.span("op"):
                outcome = self.workload.traced_op(tracer)
            self.workload.after_op(outcome)
            counts.append((tracer.calls(), tracer.attr_totals()))
        self.assertEqual(counts[0], counts[1])


class ClosedSweepTest(TinyWorkloadChecks, unittest.TestCase):
    workload_class = workloads.ClosedSweep

    def test_tampered_point_trips_check(self) -> None:
        outcome = self.fresh()
        outcome.value[0].results[3] = tampered(outcome.value[0].results[3])
        self.assertIn("grid 0: point 3 differs from the reference", self.workload.check(outcome))

    def test_engine_label_alone_may_differ(self) -> None:
        outcome = self.fresh()
        serial = sweep.run_sweep(self.workload.sweeps[1], executor="serial")
        self.assertEqual(serial.results[0].engine, "batch-schedule")
        outcome.value[1] = serial
        self.assertEqual(self.workload.check(outcome), [])

    def test_exact_oracle_accepts_engine_and_rejects_bias(self) -> None:
        grid = workloads.reseed(fused_sweep(), SEED)
        points = workloads.payloads(sweep.run_sweep(grid, executor="fused").results)
        self.assertEqual(workloads.exact_oracle_problems(grid, points), [])
        biased = copy.deepcopy(points)
        for index in workloads.EXACT_POINTS:
            biased[index]["rounds"]["mean"] *= 1.5
        problems = workloads.exact_oracle_problems(grid, biased)
        self.assertEqual(len(problems), len(workloads.EXACT_POINTS), problems)


class DurableSweepTest(TinyWorkloadChecks, unittest.TestCase):
    workload_class = workloads.DurableSweep

    def test_tampered_warm_run_trips_check(self) -> None:
        outcome = self.fresh()
        cold, warm, resumed = outcome.value
        warm.results[0] = tampered(warm.results[0])
        self.assertIn("warm re-run differs from the cold run", self.workload.check(outcome))

    def test_missing_cache_hits_trip_check(self) -> None:
        outcome = self.fresh()
        outcome.value[1].cache_hits -= 1
        problems = self.workload.check(outcome)
        self.assertTrue(any("cache hits" in problem for problem in problems), problems)

    def test_tampered_resume_trips_check(self) -> None:
        outcome = self.fresh()
        resumed = outcome.value[2]
        resumed.results[-1] = tampered(resumed.results[-1])
        self.assertIn("journal resume differs from the cold run", self.workload.check(outcome))


class OpenSystemTest(TinyWorkloadChecks, unittest.TestCase):
    workload_class = workloads.OpenSystem

    def test_tampered_payload_trips_check(self) -> None:
        outcome = self.fresh()
        outcome.value[1][1]["store"]["arrivals"] += 1
        problems = self.workload.check(outcome)
        self.assertIn("open point 1 differs from the first op", problems)
        self.assertIn("open point 1 does not survive a JSON round trip", problems)

    def test_scalar_oracle_catches_divergence(self) -> None:
        spec = self.workload.specs[0].override({"trials": 4})
        vector = open_module.run_open_scenario(spec)
        scalar = open_module.run_open_scenario(spec.override({"batch": False}))
        self.assertEqual(workloads.oracle_problems("p", vector, scalar), [])
        scalar.store.dropped += 1
        self.assertEqual(
            workloads.oracle_problems("p", vector, scalar),
            ["p: vectorized engine differs from the open-scalar oracle"],
        )


class CliColdTest(TinyWorkloadChecks, unittest.TestCase):
    workload_class = workloads.CliCold

    def test_tampered_json_trips_check(self) -> None:
        outcome = self.fresh()
        outcome.value[1]["sweep"]["results"][2]["success"]["successes"] -= 1
        self.assertIn("cli sweep: point 2 differs from the reference",
                      self.workload.check(outcome))

    def test_failed_exit_trips_check(self) -> None:
        outcome = self.fresh()
        replies = outcome.value[0]
        replies["run"] = (2, "", "scenario error: boom")
        self.assertIn("cli run exited 2: scenario error: boom", self.workload.check(outcome))

    def test_peak_rss_is_the_cli_processes(self) -> None:
        outcome = self.fresh()
        peak_kb = outcome.counters["peak_rss_kb"]
        self.assertGreater(peak_kb, 0)
        self.assertEqual(run.peak_rss_mb([outcome]), peak_kb / 1024.0)

    def test_missing_fused_label_trips_check(self) -> None:
        outcome = self.fresh()
        for point in outcome.value[1]["sweep"]["results"]:
            point["engine"] = "batch-history"
        problems = self.workload.check(outcome)
        self.assertIn("cli sweep shows no fused-history point", problems)
        self.assertIn("cli sweep shows no fused-schedule point", problems)


class TracerTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self) -> None:
        tracer = tracing.Tracer()
        tracer.spans = [
            tracing.Span("a", 0.0, 10.0),
            tracing.Span("b", 1.0, 4.0, parent=0),
            tracing.Span("c", 2.0, 3.0, parent=1),
            tracing.Span("b", 5.0, 6.0, parent=0),
        ]
        self.assertEqual(tracer.self_seconds(), {"a": 6.0, "b": 3.0, "c": 1.0})
        self.assertEqual(tracer.calls(), {"a": 1, "b": 2, "c": 1})

    def test_adopted_spans_nest_under_open_span(self) -> None:
        child = tracing.Tracer()
        with child.span("x"):
            with child.span("y"):
                pass
        parent = tracing.Tracer()
        with parent.span("op"):
            parent.adopt(child.records())
        self.assertEqual([span.parent for span in parent.spans], [None, 0, 1])

    def test_installed_restores_every_entry_point(self) -> None:
        before = {
            (id(owner), attribute): tracing.inspect.getattr_static(owner, attribute)
            for owner, attribute, *_ in tracing._targets()
        }
        with tracing.installed(tracing.Tracer()):
            self.assertIsNot(sweep.resolve_scenario, before[(id(sweep), "resolve_scenario")])
        after = {
            (id(owner), attribute): tracing.inspect.getattr_static(owner, attribute)
            for owner, attribute, *_ in tracing._targets()
        }
        self.assertEqual(before, after)
        self.assertIs(runner.resolve_scenario, before[(id(runner), "resolve_scenario")])


class ManifestTest(unittest.TestCase):
    def test_benchmark_json_is_current(self) -> None:
        self.assertEqual((ROOT / "BENCHMARK.json").read_text(), manifest.render())

    def test_workload_names_agree(self) -> None:
        self.assertEqual(list(workloads.WORKLOADS), list(layers.WORKLOAD_WHY))

    def test_layer_metrics_cover_the_table(self) -> None:
        metrics = layers.layer_metrics(tracing.Tracer(), 1, [], {
            name: 0.0 for name, *_ in layers.PER_LAYER
            if name.startswith(("import.", "trace.")) or name == "cli.interpreter_ms"
        })
        self.assertEqual(sorted(metrics), sorted(name for name, *_ in layers.PER_LAYER))

    def test_importtime_parsing(self) -> None:
        sample = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | encodings",
            "import time:       500 |       2000 |   numpy",
            "import time:       300 |       2600 | repro",
            "import time:        50 |         60 | repro.cli",
        ])
        parsed = layers.parse_importtime(sample)
        self.assertEqual(parsed["import.total_ms"], 2.66)
        self.assertEqual(parsed["import.numpy_ms"], 2.0)
        self.assertEqual(parsed["import.experiments_ms"], 0.0)


class ShellTest(unittest.TestCase):
    def test_incomplete_checkout_fails_without_a_result(self) -> None:
        bare = WORKDIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "closed_sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(completed.returncode, 0)
        self.assertNotIn('"correct"', completed.stdout)

    def test_output_contract(self) -> None:
        tables = {0: layers.END_TO_END, 1: layers.PER_LAYER}
        for trace, table in tables.items():
            completed = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "open_system",
                 "--seed", "5", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
            )
            result = json.loads(completed.stdout.splitlines()[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assertGreaterEqual(result["attempted"], run.MIN_OPS)
            self.assertEqual(
                {name: metric["unit"] for name, metric in result["metrics"].items()},
                {name: unit for name, unit, *_ in table},
            )

    def test_tail_has_ten_samples_beyond(self) -> None:
        times = [float(value) for value in range(1, 41)]
        value, percentile = run.tail(times)
        self.assertEqual(sum(1 for t in times if t > value), run.TAIL_BEYOND)
        self.assertEqual(percentile, 75.0)


if __name__ == "__main__":
    unittest.main()
