"""Fused-executor benchmark: stacked grids vs point-serial batch runs.

The acceptance benchmark for the fused sweep engine: a dense 32-point
single-core grid of engine-bound schedule points must run >= 3x faster
through the ``fused`` executor than through point-serial batch runs,
with per-point statistics *identical* to the serial reference (every
point consumes its own seed-derived stream in solo order, stacked or
not).  Unlike the process-pool gate next door, this one needs no extra
cores - fusing amortizes the per-round engine work across grid points,
the axis a single core can actually exploit - so it never skips.  The
player-grid measurement rides along informationally (asserted identical,
recorded, not gated).  Both grids come from
:mod:`benchmarks.sweep_workload`.
"""

from __future__ import annotations

import pytest

from repro.scenarios import run_sweep

from .conftest import record, timed
from .sweep_workload import FUSED_POINTS, fused_player_sweep, fused_sweep


def _assert_identical(serial, fused) -> None:
    for point_serial, point_fused in zip(serial.results, fused.results):
        assert point_fused.spec == point_serial.spec
        assert point_fused.rounds == point_serial.rounds
        assert point_fused.success == point_serial.success


@pytest.mark.benchmark
def test_bench_sweep_fused_vs_point_serial(benchmark):
    sweep = fused_sweep()
    assert len(sweep.points()) == FUSED_POINTS >= 16

    serial, serial_seconds = timed(lambda: run_sweep(sweep, executor="serial"))
    fused = benchmark.pedantic(
        lambda: run_sweep(sweep, executor="fused"),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    fused_seconds = fused.elapsed_seconds

    # Correctness first: identical statistics, point for point.
    _assert_identical(serial, fused)

    # The player grid rides along: identity asserted, speedup logged.
    player = fused_player_sweep()
    player_serial, player_serial_seconds = timed(
        lambda: run_sweep(player, executor="serial")
    )
    player_fused, player_fused_seconds = timed(
        lambda: run_sweep(player, executor="fused")
    )
    _assert_identical(player_serial, player_fused)

    speedup = serial_seconds / fused_seconds
    record(
        benchmark, f"fused sweep ({FUSED_POINTS} schedule points)",
        serial_seconds=serial_seconds, fused_seconds=fused_seconds,
        speedup=speedup,
        player_serial_seconds=player_serial_seconds,
        player_fused_seconds=player_fused_seconds,
        player_speedup=player_serial_seconds / player_fused_seconds,
    )
    assert speedup >= 3.0, (
        f"fused executor only {speedup:.2f}x over point-serial batch on "
        f"the {FUSED_POINTS}-point grid; expected >= 3x"
    )
