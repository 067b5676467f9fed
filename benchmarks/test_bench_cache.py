"""Warm-cache benchmark gate: a cached sweep must beat re-simulation >= 20x.

The acceptance benchmark for the content-addressed result store: running
the cache-gate sweep against a fully warm cache must (a) serve every
point from the store without invoking any engine - proven by making the
engine entry point explode - (b) return results bit-identical to the
cold run, and (c) be at least 20x faster than the cold run that
populated the cache.  ``tools/bench_report.py`` records the same
workload's honest numbers in the ``sweep_cache`` section of
``BENCH_BATCH.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.scenarios import run_sweep

from .sweep_workload import cache_sweep

MIN_SPEEDUP = 20.0


@pytest.mark.benchmark
def test_bench_warm_cache_vs_cold(benchmark, tmp_path, monkeypatch):
    sweep = cache_sweep()
    cache_dir = tmp_path / "cache"

    start = time.perf_counter()
    cold = run_sweep(sweep, executor="serial", cache=cache_dir)
    cold_seconds = time.perf_counter() - start
    assert cold.cache_hits == 0

    # The warm run must not touch an engine at all: a fresh store
    # instance (no in-memory LRU carryover) and an exploding
    # run_scenario prove every point came from disk.
    import repro.scenarios.runner as runner_module

    def explode(spec):
        raise AssertionError("engine invoked on a fully warm cache")

    monkeypatch.setattr(runner_module, "run_scenario", explode)

    start = time.perf_counter()
    warm = benchmark.pedantic(
        lambda: run_sweep(sweep, executor="serial", cache=cache_dir),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    warm_seconds = time.perf_counter() - start

    assert warm.cache_hits == len(sweep.points())
    assert warm.results == cold.results

    speedup = cold_seconds / warm_seconds
    print(
        f"\nsweep cache: cold={cold_seconds:.3f}s warm={warm_seconds:.4f}s "
        f"speedup={speedup:.1f}x ({len(sweep.points())} points)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm cache only {speedup:.1f}x over re-simulation; "
        f"expected >= {MIN_SPEEDUP}x"
    )
