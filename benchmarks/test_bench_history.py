"""History-engine benchmark: the CD path, solo and fused.

The acceptance benchmark for the array-based history engine, in two
halves:

* **solo** - the Table-1 CD cell (Willard's search over an entropy
  workload on the full board) must run >= 8x faster on the history
  engine than on the scalar reference loop, with matching statistics.
  This is the cell the old per-group-session engine managed only ~3x on;
  the trie-memoized, trichotomy-band rebuild clears 8x with the first
  run cold and the remainder warm (steady-state for experiment loops,
  which estimate the same protocol spec many times).
* **fused** - the dense CD grid of :func:`benchmarks.sweep_workload.cd_grid_sweep`
  (Willard / decay / code-search under clean and shifted predictions)
  must run >= 3x faster through the ``fused`` executor than point-serial,
  with per-point statistics *identical* to the serial reference - the
  ``fused-history`` stacking the PR-4 executor could not reach.

Like the other fused gate this needs no extra cores, so it never skips.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    ENGINE_FUSED_HISTORY,
    estimate_uniform_rounds,
)
from repro.channel import with_collision_detection
from repro.experiments.table1_nocd import entropy_sweep_distributions
from repro.protocols.willard import WillardProtocol
from repro.scenarios import run_sweep

from .conftest import REPEATS, alternated, own_time, record, timed
from .sweep_workload import CD_GRID_POINTS, cd_grid_sweep

N = 2**16
TRIALS = 6000
MAX_ROUNDS = 1024
SEED = 2021


@pytest.mark.benchmark
def test_bench_history_solo_vs_scalar(benchmark):
    """Table 1 CD cell: Willard on the array-based history engine."""
    distribution = entropy_sweep_distributions(N, quick=True)[1]
    protocol = WillardProtocol(N)
    channel = with_collision_detection()

    def estimate(batch):
        return estimate_uniform_rounds(
            protocol,
            distribution,
            np.random.default_rng(SEED),
            channel=channel,
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            batch=batch,
        )

    scalar, scalar_seconds = timed(lambda: estimate(False))
    batched, batch_seconds = timed(lambda: estimate(True))
    benchmark.pedantic(
        lambda: estimate(True), rounds=3, iterations=1, warmup_rounds=1
    )

    speedup = scalar_seconds / batch_seconds
    record(
        benchmark, f"CD Willard, trials={TRIALS}",
        scalar_seconds=scalar_seconds, batch_seconds=batch_seconds,
        speedup=speedup,
    )
    assert batched.success.rate == scalar.success.rate == 1.0
    assert abs(batched.rounds.mean - scalar.rounds.mean) <= (
        0.1 * scalar.rounds.mean
    )
    assert speedup >= 8.0, (
        f"history engine only {speedup:.1f}x faster than scalar "
        f"({batch_seconds:.3f}s vs {scalar_seconds:.3f}s)"
    )


@pytest.mark.benchmark
def test_bench_history_fused_vs_point_serial(benchmark):
    sweep = cd_grid_sweep()
    assert len(sweep.points()) == CD_GRID_POINTS >= 24

    # Warm both paths once: the gate measures steady-state throughput,
    # not first-call distribution construction.
    run_sweep(sweep, executor="fused")

    # A side takes ~10-50 ms: compare the executors' median own times.
    (serial, serial_seconds), (fused, fused_seconds) = alternated(
        lambda: own_time(run_sweep(sweep, executor="serial")),
        lambda: own_time(run_sweep(sweep, executor="fused")),
    )
    benchmark.pedantic(
        lambda: run_sweep(sweep, executor="fused"),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )

    # Correctness first: identical statistics, point for point.
    for point_serial, point_fused in zip(serial.results, fused.results):
        assert point_fused.spec == point_serial.spec
        assert point_fused.rounds == point_serial.rounds
        assert point_fused.success == point_serial.success
    labels = [point.engine for point in fused.results]
    assert labels.count(ENGINE_FUSED_HISTORY) >= 24

    speedup = serial_seconds / fused_seconds
    record(
        benchmark,
        f"fused CD grid ({CD_GRID_POINTS} points, "
        f"{labels.count(ENGINE_FUSED_HISTORY)} fused-history, "
        f"median of {REPEATS} runs)",
        serial_seconds=serial_seconds, fused_seconds=fused_seconds,
        speedup=speedup,
    )
    assert speedup >= 3.0, (
        f"fused executor only {speedup:.2f}x over point-serial batch on "
        f"the {CD_GRID_POINTS}-point CD grid; expected >= 3x"
    )
