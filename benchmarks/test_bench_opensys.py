"""Open-system engine benchmark: vectorized driver vs the scalar oracle.

The acceptance gate for the open-loop driver: on the fixed load point of
:mod:`benchmarks.opensys_workload` (decay serving Poisson arrivals below
service capacity), the vectorized open-schedule engine must run >= 5x
faster than the scalar per-trial reference loop - and, because both
consume identical per-trial seed streams, produce a **bit-identical**
latency store, not merely matching statistics.  Single-core, so the gate
never skips.
"""

from __future__ import annotations

import pytest

from repro.opensys import ENGINE_OPEN_SCALAR, ENGINE_OPEN_SCHEDULE
from repro.scenarios import run_open_scenario

from .conftest import record, timed
from .opensys_workload import TRIALS, open_point, open_retry_point

SPEEDUP_FLOOR = 5.0
#: The full request lifecycle (orbit, admission, timeout retries) may
#: cost at most this factor over the plain give-up/capacity driver.
RETRY_OVERHEAD_CEILING = 2.0


@pytest.mark.benchmark
def test_bench_open_schedule_vs_scalar(benchmark):
    spec = open_point()

    scalar, scalar_seconds = timed(
        lambda: run_open_scenario(spec.override({"batch": False}))
    )
    vectorized, vector_seconds = timed(lambda: run_open_scenario(spec))
    benchmark.pedantic(
        lambda: run_open_scenario(spec), rounds=3, iterations=1, warmup_rounds=1
    )

    # Correctness first: same seed streams, same trichotomy draws, same
    # store - bitwise, not statistically.
    assert scalar.engine == ENGINE_OPEN_SCALAR
    assert vectorized.engine == ENGINE_OPEN_SCHEDULE
    assert vectorized.store == scalar.store, (
        "vectorized open run diverged from the scalar reference store"
    )

    speedup = scalar_seconds / vector_seconds
    record(
        benchmark, f"open decay/poisson, trials={TRIALS}",
        scalar_seconds=scalar_seconds, vectorized_seconds=vector_seconds,
        speedup=speedup,
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"open-schedule engine only {speedup:.1f}x faster than scalar "
        f"({vector_seconds:.3f}s vs {scalar_seconds:.3f}s); "
        f"expected >= {SPEEDUP_FLOOR:.0f}x"
    )


@pytest.mark.benchmark
def test_bench_open_retry_lifecycle(benchmark):
    """The lifecycle gate: retry + admission policies stay cheap.

    Three asserts on the backoff+shed point: the vectorized driver with
    the full lifecycle active (1) stays bit-identical to the scalar
    oracle running the same policies, (2) remains >= 5x faster than that
    oracle, and (3) costs at most 2x the plain open driver - the same
    traffic point with the zero policies (give-up / hard capacity), i.e.
    exactly PR 7's fast path - so the orbit, admission, and expiry
    machinery never taxes runs that do not use it.
    """
    retry_spec = open_retry_point()
    plain_spec = retry_spec.override(
        {
            "name": "bench-open-decay-retry-baseline",
            "retry": "give-up",
            "admission": "capacity",
        }
    )

    scalar, scalar_seconds = timed(
        lambda: run_open_scenario(retry_spec.override({"batch": False}))
    )
    vectorized, vector_seconds = timed(lambda: run_open_scenario(retry_spec))
    _, plain_seconds = timed(lambda: run_open_scenario(plain_spec))
    benchmark.pedantic(
        lambda: run_open_scenario(retry_spec),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )

    assert scalar.engine == ENGINE_OPEN_SCALAR
    assert vectorized.engine == ENGINE_OPEN_SCHEDULE
    assert vectorized.store == scalar.store, (
        "retry-enabled vectorized run diverged from the scalar reference"
    )
    assert vectorized.store.retried > 0, (
        "benchmark point produced no retries; the lifecycle is not hot"
    )

    speedup = scalar_seconds / vector_seconds
    overhead = vector_seconds / plain_seconds
    record(
        benchmark, f"open retry lifecycle, trials={TRIALS}",
        scalar_seconds=scalar_seconds, vectorized_seconds=vector_seconds,
        plain_seconds=plain_seconds, speedup=speedup, overhead=overhead,
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"retry-enabled engine only {speedup:.1f}x faster than scalar; "
        f"expected >= {SPEEDUP_FLOOR:.0f}x"
    )
    assert overhead <= RETRY_OVERHEAD_CEILING, (
        f"request lifecycle costs {overhead:.2f}x over the plain open "
        f"driver; ceiling is {RETRY_OVERHEAD_CEILING:.1f}x"
    )
