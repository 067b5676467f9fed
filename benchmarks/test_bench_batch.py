"""Batch vs scalar Monte Carlo estimation at Table-1 scale.

The acceptance benchmark for the vectorized engine: a benchmark-scale
Table 1 no-CD estimate (sorted probing over an entropy workload on the
full board) must run >= 10x faster on the batch substrate than on the
scalar reference loop, with matching statistics.  The CD comparison is
reported for the trajectory but only gated loosely - the history-grouped
engine's advantage grows with the trial count.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.montecarlo import estimate_uniform_rounds
from repro.channel import with_collision_detection, without_collision_detection
from repro.experiments.table1_nocd import entropy_sweep_distributions
from repro.protocols.sorted_probing import SortedProbingProtocol
from repro.protocols.willard import WillardProtocol

from .conftest import record, timed

N = 2**16
TRIALS = 6000
MAX_ROUNDS = 1024
SEED = 2021


def _gate(benchmark, protocol, distribution, channel, label, min_speedup):
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
        benchmark, f"{label}, trials={TRIALS}",
        scalar_seconds=scalar_seconds, batch_seconds=batch_seconds,
        speedup=speedup,
    )
    assert batched.success.rate == scalar.success.rate == 1.0
    assert abs(batched.rounds.mean - scalar.rounds.mean) <= (
        0.1 * scalar.rounds.mean
    )
    assert speedup >= min_speedup, (
        f"{label}: batch engine only {speedup:.1f}x faster than scalar "
        f"({batch_seconds:.3f}s vs {scalar_seconds:.3f}s); expected "
        f">= {min_speedup:.0f}x"
    )


def test_bench_batch_vs_scalar_nocd(benchmark):
    """Table 1 no-CD cell: sorted probing, cycling, mid-entropy workload."""
    distribution = entropy_sweep_distributions(N, quick=True)[1]
    _gate(
        benchmark,
        SortedProbingProtocol(distribution, one_shot=False),
        distribution,
        without_collision_detection(),
        "no-CD sorted probing",
        10.0,
    )


def test_bench_batch_vs_scalar_cd(benchmark):
    """Table 1 CD flavour: Willard's search on the history-grouped engine."""
    _gate(
        benchmark,
        WillardProtocol(N),
        entropy_sweep_distributions(N, quick=True)[1],
        with_collision_detection(),
        "CD willard",
        2.0,
    )
