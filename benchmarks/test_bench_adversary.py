"""Fault-injection overhead on the batch engines.

The adversarial channel models ride inside the vectorized round loop
(one extra perturbation, plus one pre-drawn uniform block for the
randomized models), so they must not forfeit the batch engines' speed:
the acceptance gate is that a noisy batch run stays within 2x of the
faithful batch run on the same workload, on both the schedule and the
history engine.  Deterministic jammers consume no randomness at all and
are gated tighter.  The adaptive jammer is gated on one representative
strategy per engine and recorded, with no bound, on the others.
Statistics sanity-check the models at scale: jams and noise delay, they
do not kill.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.montecarlo import estimate_uniform_rounds
from repro.channel import (
    AdaptiveAdversary,
    NoisyChannel,
    ObliviousJammer,
    with_collision_detection,
    without_collision_detection,
)
from repro.experiments.table1_nocd import entropy_sweep_distributions
from repro.protocols.sorted_probing import SortedProbingProtocol
from repro.protocols.willard import WillardProtocol

from .conftest import record, timed

N = 2**16
TRIALS = 6000
MAX_ROUNDS = 1024
SEED = 2021

NOISE = NoisyChannel(
    silence_to_collision=0.05, collision_to_silence=0.05, success_erasure=0.1
)
JAM = ObliviousJammer(budget=8)
GREEDY = AdaptiveAdversary(budget=4, strategy="greedy")
SCHEDULER = AdaptiveAdversary(budget=8, strategy="scheduler", mode="front")
STREAK = AdaptiveAdversary(budget=8, strategy="streak", patience=2)
ADAPTIVE_BOUND = 3.0

#: Engine -> (protocol for the workload distribution, channel, label).
ENGINES = {
    "schedule": (
        lambda distribution: SortedProbingProtocol(distribution, one_shot=False),
        without_collision_detection(),
        "no-CD sorted probing",
    ),
    "history": (
        lambda distribution: WillardProtocol(N),
        with_collision_detection(),
        "CD willard",
    ),
}


def _runs(engine):
    """The engine's label and its batch run under a given channel model."""
    protocol_for, base_channel, label = ENGINES[engine]
    distribution = entropy_sweep_distributions(N, quick=True)[1]

    def run(model):
        return estimate_uniform_rounds(
            protocol_for(distribution),
            distribution,
            np.random.default_rng(SEED),
            channel=base_channel.with_model(model),
            trials=TRIALS,
            max_rounds=MAX_ROUNDS,
            batch=True,
        )

    return label, run


def _gate(benchmark, engine):
    label, run = _runs(engine)
    faithful, faithful_seconds = timed(lambda: run(None))
    noisy, noisy_seconds = timed(lambda: run(NOISE))
    jammed, jammed_seconds = timed(lambda: run(JAM))
    benchmark.pedantic(
        lambda: run(NOISE), rounds=3, iterations=1, warmup_rounds=1
    )

    noise_overhead = noisy_seconds / faithful_seconds
    jam_overhead = jammed_seconds / faithful_seconds
    record(
        benchmark, f"{label}, trials={TRIALS}",
        faithful_seconds=faithful_seconds, noisy_seconds=noisy_seconds,
        jammed_seconds=jammed_seconds, noise_overhead=noise_overhead,
        jam_overhead=jam_overhead,
    )

    # Statistics: the adversary delays but does not kill at this scale,
    # and the jam floor shows up as a strictly larger round count.
    assert faithful.success.rate == 1.0
    assert noisy.success.rate >= 0.99, noisy.success.rate
    assert jammed.success.rate >= 0.99, jammed.success.rate
    assert jammed.rounds.mean > faithful.rounds.mean
    assert jammed.rounds.minimum >= JAM.budget + 1

    # The perf gates.  Absolute floors keep sub-10ms runs from flaking
    # the ratio on timer noise.
    assert noisy_seconds <= max(2.0 * faithful_seconds, 0.05), (
        f"{label}: noisy batch {noise_overhead:.2f}x over faithful "
        f"({noisy_seconds:.3f}s vs {faithful_seconds:.3f}s)"
    )
    # The jammed run plays ~budget extra rounds per trial (real extra
    # work, not injection overhead), so it shares the noisy gate.
    assert jammed_seconds <= max(2.0 * faithful_seconds, 0.05), (
        f"{label}: jammed batch {jam_overhead:.2f}x over faithful "
        f"({jammed_seconds:.3f}s vs {faithful_seconds:.3f}s)"
    )


def _adaptive_gate(benchmark, engine, model, bound):
    """Adaptive batch within ``bound`` x of faithful batch (``None``: record).

    The adaptive model's per-round work is one boolean mask per live
    trial; what it buys with that work is *extra rounds* (each jam
    prolongs the execution), so the gate is looser than the 2x
    injection-overhead gates above: it bounds the whole stretched run,
    not just the perturbation layer.
    """
    label, run = _runs(engine)
    faithful, faithful_seconds = timed(lambda: run(None))
    adaptive, adaptive_seconds = timed(lambda: run(model))
    benchmark.pedantic(
        lambda: run(model), rounds=3, iterations=1, warmup_rounds=1
    )

    overhead = adaptive_seconds / faithful_seconds
    record(
        benchmark, f"{label}, trials={TRIALS}, adaptive[{model.strategy}]",
        faithful_seconds=faithful_seconds, adaptive_seconds=adaptive_seconds,
        overhead=overhead,
    )

    # Statistics: full information delays, it does not kill, and the
    # greedy floor (the first `budget` successes of every trial die)
    # shows up as a hard minimum.
    assert faithful.success.rate == 1.0
    assert adaptive.success.rate >= 0.99, adaptive.success.rate
    assert adaptive.rounds.mean > faithful.rounds.mean
    if model.strategy == "greedy":
        assert adaptive.rounds.minimum >= model.budget + 1

    if bound is not None:
        assert adaptive_seconds <= max(bound * faithful_seconds, 0.05), (
            f"{label}: adaptive batch {overhead:.2f}x over faithful "
            f"({adaptive_seconds:.3f}s vs {faithful_seconds:.3f}s)"
        )


def test_bench_adversary_schedule_engine(benchmark):
    """No-CD sorted probing: fault overhead on the schedule engine."""
    _gate(benchmark, "schedule")


def test_bench_adversary_history_engine(benchmark):
    """CD Willard: fault overhead on the history-trie engine."""
    _gate(benchmark, "history")


def test_bench_adaptive_schedule_engine(benchmark):
    """No-CD sorted probing under greedy adaptive jamming: the stretched
    run (budget extra successes to erase) stays within 3x of faithful."""
    _adaptive_gate(benchmark, "schedule", GREEDY, ADAPTIVE_BOUND)


def test_bench_adaptive_history_engine(benchmark):
    """CD Willard under the front scheduler: the representative strategy
    for the history engine (greedy's forced collisions grow the memoized
    trie combinatorially - real extra search, recorded below, not
    gated)."""
    _adaptive_gate(benchmark, "history", SCHEDULER, ADAPTIVE_BOUND)


@pytest.mark.parametrize(
    "engine,model",
    [
        ("schedule", SCHEDULER),
        ("schedule", STREAK),
        ("history", GREEDY),
        ("history", STREAK),
    ],
    ids=lambda value: getattr(value, "strategy", value),
)
def test_bench_adaptive_recorded(benchmark, engine, model):
    """The other strategies on each engine: same statistics, overhead
    recorded with no speed bound."""
    _adaptive_gate(benchmark, engine, model, None)
