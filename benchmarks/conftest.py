"""Shared configuration for the benchmark suite.

Each benchmark regenerates one paper artefact (a Table 1 / Table 2 cell or
a supporting experiment) at benchmark scale, prints the measurement table
it produced (so the teed benchmark log doubles as the raw data behind
EXPERIMENTS.md) and asserts the experiment's shape checks.

The ratio gates time a fast path against its scalar or serial reference
with :func:`timed` and keep their readings with :func:`record`, so

    PYTHONPATH=src python -m pytest benchmarks/ --benchmark-json=PATH

writes every gate's seconds and ratio (each benchmark's ``extra_info``)
together with pytest-benchmark's machine info: the performance snapshot.

``pytest benchmarks/ --benchmark-only`` is the documented entry point.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.registry import run_experiment

#: Benchmark-scale configuration: the full board (n = 2^16) with thinned
#: sweeps/trials so the whole suite completes in minutes.  EXPERIMENTS.md
#: records the full-scale (quick=False) numbers.
BENCH_CONFIG = ExperimentConfig(n=2**16, trials=800, seed=2021, quick=True)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    return BENCH_CONFIG


def timed(fn):
    """``fn()`` and its wall seconds."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


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
