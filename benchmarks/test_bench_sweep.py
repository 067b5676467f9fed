"""Sweep-executor benchmark: process pool vs serial at Table-1 scale.

The acceptance benchmark for the sweep layer: on a multi-core machine an
8-point sweep of heavy scenario points must run >= 2x faster through the
process-pool executor than serially, with *identical* results (every
point is reproducible from its own spec, so executors only change wall
clock).  On a single-core machine the speedup is physically impossible
and the gate is skipped - the equality check still runs, and the
readings are recorded with ``cpu_count``, which bounds the ratio.  The
workload is :func:`benchmarks.sweep_workload.executor_sweep`.
"""

from __future__ import annotations

import os

import pytest

from repro.scenarios import run_sweep

from .conftest import record, timed
from .sweep_workload import RANGE_SETS, executor_sweep


@pytest.mark.benchmark
def test_bench_sweep_process_pool_vs_serial(benchmark):
    sweep = executor_sweep()

    serial, serial_seconds = timed(lambda: run_sweep(sweep, executor="serial"))

    workers = min(len(RANGE_SETS), os.cpu_count() or 1)
    pooled = benchmark.pedantic(
        lambda: run_sweep(sweep, executor="process", max_workers=workers),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    process_seconds = pooled.elapsed_seconds

    # Correctness first: executors are interchangeable, bit for bit.
    assert serial.results == pooled.results

    speedup = serial_seconds / process_seconds
    record(
        benchmark, f"sweep executors ({len(RANGE_SETS)} points)",
        serial_seconds=serial_seconds, process_seconds=process_seconds,
        speedup=speedup, workers=workers, cpu_count=os.cpu_count() or 1,
    )
    if (os.cpu_count() or 1) < 2:
        pytest.skip(
            "single-core machine: the >= 2x process-pool gate needs >= 2 "
            f"cores (measured {speedup:.2f}x)"
        )
    assert speedup >= 2.0, (
        f"process pool only {speedup:.2f}x over serial on "
        f"{os.cpu_count()} cores; expected >= 2x"
    )
