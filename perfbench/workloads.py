"""The four benchmark workloads.

Each workload is closed-loop: one caller in one process issues an op,
waits for it, checks it, and issues the next.  The grids come from the
repository's shared definitions (:mod:`benchmarks.sweep_workload`,
:mod:`benchmarks.opensys_workload`), re-seeded from the benchmark's
``--seed``; the program receives only those generated specs.

A workload offers:

* ``op()`` - one timed unit of work, returning an :class:`Outcome`;
* ``traced_op(tracer)`` - the same op with layer spans recorded;
* ``after_op(outcome)`` - untimed bookkeeping and cleanup between ops;
* ``reference_problems()`` - setup-time checks against independent
  references (main process only, never part of ``setup_s``);
* ``check(outcome)`` - the per-op output check, a list of problems.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from benchmarks.opensys_workload import open_point, open_retry_point
from benchmarks.sweep_workload import cd_grid_sweep, fused_player_sweep, fused_sweep
from repro.scenarios import (
    EXAMPLE_CD_SWEEP,
    ScenarioResult,
    ScenarioSpec,
    Sweep,
    run_scenario,
)
from repro.scenarios import open as open_module
from repro.scenarios import sweep as sweep_module

from .tracing import Tracer, installed

ROOT = Path(__file__).resolve().parent.parent

#: Trials per grid at the self-test scale (full scale uses the defaults).
TINY = {"cd": 64, "fused": 32, "player": 8, "open_trials": 8, "open_rounds": 256}

#: Trials of the open-scalar oracle copy of each open point.
ORACLE_TRIALS = 16

#: fused_sweep() points checked against the exact solve-time oracle.
EXACT_POINTS = (0, 15, 31)

#: Tolerance of that check, in standard errors of the sample mean.
EXACT_Z = 5.0


@dataclass
class Outcome:
    """What one op returned: the value checked plus its simulated work."""

    value: object
    trial_rounds: float
    phases: dict = field(default_factory=dict)  # sub-phase seconds
    counters: dict = field(default_factory=dict)  # per-op layer counts


def reseed(sweep: Sweep, seed: int) -> Sweep:
    return Sweep(
        base=sweep.base.override({"seed": seed}),
        grid=sweep.grid,
        vary_seed=sweep.vary_seed,
    )


def closed_trial_rounds(results) -> float:
    """Σ(successes·mean_rounds + failures·max_rounds) over closed results."""
    total = 0.0
    for result in results:
        successes = result.success.successes
        mean = result.rounds.mean if successes else 0.0
        failures = result.success.trials - successes
        total += successes * mean + failures * result.spec.max_rounds
    return total


def payloads(results) -> list[dict]:
    return [result.to_dict() for result in results]


def point_identity(payload: dict) -> dict:
    """A closed result dict without its engine label and wall clock."""
    identity = {
        key: value for key, value in payload.items()
        if key not in ("engine", "elapsed_seconds")
    }
    identity["metadata"] = {
        key: value for key, value in payload["metadata"].items() if key != "engine"
    }
    return identity


def compare_points(label: str, got: list[dict], want: list[dict]) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} point(s), expected {len(want)}"]
    return [
        f"{label}: point {index} differs from the reference"
        for index, (left, right) in enumerate(zip(got, want))
        if point_identity(left) != point_identity(right)
    ]


def exact_oracle_problems(sweep: Sweep, points: list[dict]) -> list[str]:
    """Mean rounds of fixed-probability points vs the exact solve time.

    The exact distribution comes from :mod:`repro.analysis.exact`, which
    shares no code with the engines; the tolerance is ``EXACT_Z``
    standard errors of a mean over the point's solved trials.
    """
    from repro.analysis.exact import schedule_solve_time

    problems = []
    specs = sweep.points()
    for index in EXACT_POINTS:
        spec, payload = specs[index], points[index]
        k = spec.workload.params["k"]
        probability = 1.0 / spec.protocol.params["k_hat"]
        exact = schedule_solve_time([probability] * spec.max_rounds, k)
        mean = exact.expected_rounds_conditional()
        rounds = np.arange(1, exact.horizon + 1)
        variance = (rounds**2 * exact.pmf).sum() / exact.success_probability() - mean**2
        solved = payload["success"]["successes"]
        observed = payload["rounds"]["mean"]
        if solved == 0 or observed is None:
            problems.append(f"exact oracle: point {index} solved no trial")
            continue
        z = abs(observed - mean) / math.sqrt(variance / solved)
        if z > EXACT_Z:
            problems.append(
                f"exact oracle: point {index} mean rounds {observed:.3f} vs exact "
                f"{mean:.3f} ({z:.1f} standard errors > {EXACT_Z})"
            )
    return problems


class Workload:
    name = ""
    #: The :mod:`perfbench.calibration` kernel closest to the op's work.
    calibration = "numeric"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.workdir = workdir
        self.reference: object = None

    def op(self) -> Outcome:
        raise NotImplementedError

    def traced_op(self, tracer: Tracer) -> Outcome:
        with installed(tracer):
            return self.op()

    def after_op(self, outcome: Outcome) -> None:
        pass

    def reference_problems(self, first: Outcome) -> list[str]:
        return []

    def check(self, outcome: Outcome) -> list[str]:
        raise NotImplementedError


class ClosedSweep(Workload):
    """``run_sweep(executor="fused")`` over the three stacked-engine grids."""

    name = "closed_sweep"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        grids = (
            [cd_grid_sweep(TINY["cd"]), fused_sweep(TINY["fused"]),
             fused_player_sweep(TINY["player"])]
            if tiny
            else [cd_grid_sweep(), fused_sweep(), fused_player_sweep()]
        )
        self.sweeps = [reseed(sweep, seed) for sweep in grids]

    def op(self) -> Outcome:
        results = [
            sweep_module.run_sweep(sweep, executor="fused") for sweep in self.sweeps
        ]
        return Outcome(
            value=results,
            trial_rounds=sum(closed_trial_rounds(result.results) for result in results),
        )

    def reference_problems(self, first: Outcome) -> list[str]:
        self.reference = [
            payloads(sweep_module.run_sweep(sweep, executor="serial").results)
            for sweep in self.sweeps
        ]
        return exact_oracle_problems(self.sweeps[1], self.reference[1])

    def check(self, outcome: Outcome) -> list[str]:
        grids = [payloads(result.results) for result in outcome.value]
        problems = []
        for index, (got, want) in enumerate(zip(grids, self.reference)):
            problems += compare_points(f"grid {index}", got, want)
        engines = {point["engine"] for grid in grids for point in grid}
        for label in ("fused-history", "fused-schedule", "fused-player"):
            if label not in engines:
                problems.append(f"no point ran on {label}")
        return problems


class DurableSweep(Workload):
    """Cold CD grid with store + journal, then a warm re-run and a resume."""

    name = "durable_sweep"
    calibration = "serialization"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        self.sweep = reseed(cd_grid_sweep(TINY["cd"]) if tiny else cd_grid_sweep(), seed)
        self.points = len(self.sweep.points())
        self.ops = 0

    def _paths(self) -> tuple[Path, Path, Path]:
        root = self.workdir / f"durable-{self.ops}"
        return root, root / "store", root / "journal.jsonl"

    def op(self) -> Outcome:
        self.ops += 1
        root, store, journal = self._paths()
        run_sweep = sweep_module.run_sweep
        started = time.perf_counter()
        cold = run_sweep(self.sweep, executor="serial", cache=str(store), resume=str(journal))
        cold_done = time.perf_counter()
        warm = run_sweep(self.sweep, executor="serial", cache=str(store))
        warm_done = time.perf_counter()
        resumed = run_sweep(self.sweep, executor="serial", resume=str(journal))
        resume_done = time.perf_counter()
        return Outcome(
            value=(cold, warm, resumed),
            trial_rounds=closed_trial_rounds(cold.results),
            phases={
                "cold": cold_done - started,
                "warm": warm_done - cold_done,
                "resume": resume_done - warm_done,
            },
        )

    def after_op(self, outcome: Outcome) -> None:
        root, store, journal = self._paths()
        outcome.counters["store.bytes"] = sum(
            path.stat().st_size for path in store.rglob("*.json")
        )
        outcome.counters["journal.bytes"] = journal.stat().st_size
        shutil.rmtree(root, ignore_errors=True)
        # Flush the removal here, outside the timed op.  Left pending, its
        # write-back lands in the next ops' fsyncs, and their system time
        # grew from ~8 to ~20 ms per op over minutes of back-to-back ops.
        os.sync()

    def reference_problems(self, first: Outcome) -> list[str]:
        self.reference = payloads(first.value[0].results)
        return []

    def check(self, outcome: Outcome) -> list[str]:
        cold, warm, resumed = outcome.value
        problems = compare_points("cold", payloads(cold.results), self.reference)
        if warm != cold:
            problems.append("warm re-run differs from the cold run")
        if resumed != cold:
            problems.append("journal resume differs from the cold run")
        if warm.cache_hits != self.points:
            problems.append(f"warm run had {warm.cache_hits} of {self.points} cache hits")
        if resumed.resumed != self.points:
            problems.append(f"resume replayed {resumed.resumed} of {self.points} points")
        return problems


def open_identity(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key != "elapsed_seconds"}


class OpenSystem(Workload):
    """The plain and the retry/shed open point, run and serialized."""

    name = "open_system"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        super().__init__(seed, tiny, workdir)
        scale = (
            {"trials": TINY["open_trials"], "rounds": TINY["open_rounds"]} if tiny else {}
        )
        self.specs = [
            open_point(**scale).override({"seed": seed}),
            open_retry_point(**scale).override({"seed": seed}),
        ]

    def op(self) -> Outcome:
        results = [open_module.run_open_scenario(spec) for spec in self.specs]
        return Outcome(
            value=(results, payloads(results)),
            trial_rounds=sum(spec.trials * spec.rounds for spec in self.specs),
        )

    def reference_problems(self, first: Outcome) -> list[str]:
        self.reference = [open_identity(payload) for payload in first.value[1]]
        problems = []
        for spec in self.specs:
            copy_spec = spec.override({"trials": ORACLE_TRIALS})
            vector = open_module.run_open_scenario(copy_spec)
            scalar = open_module.run_open_scenario(copy_spec.override({"batch": False}))
            problems += oracle_problems(spec.label(), vector, scalar)
        return problems

    def check(self, outcome: Outcome) -> list[str]:
        results, serialized = outcome.value
        problems = [
            f"open point {index} differs from the first op"
            for index, payload in enumerate(serialized)
            if open_identity(payload) != self.reference[index]
        ]
        for index, (result, payload) in enumerate(zip(results, serialized)):
            if open_module.OpenScenarioResult.from_dict(payload) != result:
                problems.append(f"open point {index} does not survive a JSON round trip")
        return problems


def oracle_problems(label: str, vector, scalar) -> list[str]:
    """The vectorized open engine against the ``open-scalar`` oracle."""
    problems = []
    if scalar.engine != "open-scalar":
        problems.append(f"{label}: oracle ran on {scalar.engine}, not open-scalar")
    if vector.engine == "open-scalar":
        problems.append(f"{label}: the vectorized run fell back to open-scalar")
    if vector.store.to_dict() != scalar.store.to_dict():
        problems.append(f"{label}: vectorized engine differs from the open-scalar oracle")
    return problems


class CliCold(Workload):
    """Cold ``python -m repro scenario run`` plus a fused ``--cd-grid`` sweep."""

    name = "cli_cold"

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        from repro.cli import EXAMPLE_SCENARIO

        super().__init__(seed, tiny, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        run_spec = dict(copy.deepcopy(EXAMPLE_SCENARIO), seed=seed)
        sweep_spec = copy.deepcopy(EXAMPLE_CD_SWEEP)
        sweep_spec["base"]["seed"] = seed
        if tiny:
            run_spec["trials"] = TINY["cd"]
            sweep_spec["base"]["trials"] = TINY["cd"]
        self.run_spec = ScenarioSpec.from_dict(run_spec)
        self.sweep = Sweep.from_dict(sweep_spec)
        self.run_path = workdir / "run.json"
        self.sweep_path = workdir / "sweep.json"
        self.run_path.write_text(json.dumps(run_spec))
        self.sweep_path.write_text(json.dumps(sweep_spec))
        self.spans_path = workdir / "child-spans.json"

    def _commands(self) -> dict[str, list[str]]:
        return {
            "run": ["scenario", "run", str(self.run_path), "--json"],
            "sweep": [
                "scenario", "sweep", str(self.sweep_path), "--executor", "fused", "--json"
            ],
        }

    def _invoke(self, prefix: list[str], tracer: Tracer | None) -> Outcome:
        phases, replies, peak_kb = {}, {}, 0
        for phase, argv in self._commands().items():
            out, err = self.workdir / f"{phase}.out", self.workdir / f"{phase}.err"
            with out.open("w") as stdout, err.open("w") as stderr:
                started = time.perf_counter()
                child = subprocess.Popen(
                    prefix + argv, cwd=ROOT, env=child_env(), stdout=stdout, stderr=stderr
                )
                # wait4 reaps this child alone and returns its own usage,
                # so the peak RSS is the CLI's, not the harness's.
                _, status, usage = os.wait4(child.pid, 0)
                phases[phase] = time.perf_counter() - started
            child.returncode = os.waitstatus_to_exitcode(status)
            peak_kb = max(peak_kb, usage.ru_maxrss)
            replies[phase] = (child.returncode, out.read_text(), err.read_text())
            if tracer is not None and self.spans_path.exists():
                tracer.adopt(json.loads(self.spans_path.read_text()))
                self.spans_path.unlink()
        return Outcome(
            value=replies, trial_rounds=0.0, phases=phases, counters={"peak_rss_kb": peak_kb}
        )

    def after_op(self, outcome: Outcome) -> None:
        """Parse the replies (what the user reads) outside the timed op."""
        replies, parsed = outcome.value, {}
        for phase, (code, stdout, _) in replies.items():
            try:
                parsed[phase] = json.loads(stdout) if code == 0 else None
            except json.JSONDecodeError:
                parsed[phase] = None
        if parsed["run"] is not None and parsed["sweep"] is not None:
            rows = [parsed["run"]] + parsed["sweep"]["results"]
            outcome.trial_rounds = closed_trial_rounds(map(ScenarioResult.from_dict, rows))
        outcome.value = (replies, parsed)

    def op(self) -> Outcome:
        return self._invoke([sys.executable, "-m", "repro"], None)

    def traced_op(self, tracer: Tracer) -> Outcome:
        bootstrap = str(Path(__file__).with_name("cli_traced.py"))
        return self._invoke([sys.executable, bootstrap, str(self.spans_path)], tracer)

    def reference_problems(self, first: Outcome) -> list[str]:
        self.reference = {
            "run": run_scenario(self.run_spec).to_dict(),
            "sweep": payloads(
                sweep_module.run_sweep(self.sweep, executor="fused").results
            ),
        }
        return []

    def check(self, outcome: Outcome) -> list[str]:
        replies, parsed = outcome.value
        problems = []
        for phase, (code, _, stderr) in replies.items():
            if code != 0:
                tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
                problems.append(f"cli {phase} exited {code}: {tail[0]}")
            elif parsed[phase] is None:
                problems.append(f"cli {phase} printed no parseable --json")
        if problems:
            return problems
        problems += compare_points("cli run", [parsed["run"]], [self.reference["run"]])
        points = parsed["sweep"]["results"]
        problems += compare_points("cli sweep", points, self.reference["sweep"])
        engines = {point["engine"] for point in points}
        for label in ("fused-history", "fused-schedule"):
            if label not in engines:
                problems.append(f"cli sweep shows no {label} point")
        return problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ClosedSweep, DurableSweep, OpenSystem, CliCold)
}
