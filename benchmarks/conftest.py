"""Shared configuration for the benchmark suite.

Each benchmark regenerates one paper artefact (a Table 1 / Table 2 cell or
a supporting experiment) at benchmark scale, prints the measurement table
it produced (so a teed benchmark log keeps the raw data) and asserts
the experiment's shape checks.

The ratio gates time a fast path against its scalar or serial reference
with :func:`timed` (or :func:`alternated`, where one slow run of a short
side would decide the ratio) and keep their readings with
:func:`record`, so

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-json=PATH

writes every gate's seconds and ratio (each benchmark's ``extra_info``)
together with pytest-benchmark's machine info: the performance snapshot.

``pytest benchmarks/ --benchmark-only`` is the documented entry point.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.registry import run_experiment

#: Benchmark-scale configuration: the full board (n = 2^16) with thinned
#: sweeps/trials so the whole suite completes in minutes.  The full-scale
#: (quick=False) numbers come from ``python tools/generate_experiments_md.py``,
#: which writes EXPERIMENTS.md on demand; none is committed.
BENCH_CONFIG = ExperimentConfig(n=2**16, trials=800, seed=2021, quick=True)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return BENCH_CONFIG


def timed(fn):
    """``fn()`` and its wall seconds."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def own_time(result):
    """A sweep result and its ``elapsed_seconds``: the executor's own time,
    without the grid expansion every executor shares."""
    return result, result.elapsed_seconds


#: Turns of an :func:`alternated` comparison.
REPEATS = 9


def alternated(*sides) -> list[tuple[object, float]]:
    """Each side's last result and median seconds over :data:`REPEATS` turns.

    A side is a callable returning ``(result, seconds)``, such as
    ``lambda: timed(fn)`` or ``lambda: own_time(run_sweep(...))``.  The
    sides run in turn, so a slow run or a drifting machine moves them
    alike, and no single run decides the ratio of their medians.
    """
    turns = [[side() for side in sides] for _ in range(REPEATS)]
    return [
        (readings[-1][0], statistics.median(seconds for _, seconds in readings))
        for readings in zip(*turns)
    ]


def record(benchmark, label: str, **readings) -> None:
    """Print a gate's readings and keep them in its ``extra_info``.

    Called before the gate asserts its bound, so a failing reading is
    recorded too.  ``extra_info`` is updated in place: pytest-benchmark's
    stats hold the fixture's dict, not a copy.
    """
    benchmark.extra_info.update(readings)
    print(
        f"\n{label}: "
        + " ".join(f"{key}={value:.4g}" for key, value in readings.items())
    )


def run_and_check(
    benchmark, experiment_id: str, config: ExperimentConfig
) -> ExperimentResult:
    """Benchmark one experiment run; print its table; assert its checks."""
    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id, config),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(result.render())
    assert result.all_checks_pass(), (
        f"{experiment_id} failed shape checks: {result.failed_checks()}"
    )
    return result
