"""Faithful schedule runs against the per-round loop, array for array.

A faithful schedule point (no active channel model) ignores feedback,
so the closed engine may settle its trials a whole draw block at a
time.  Every other run takes the per-round body.  The reference here is
an *inert* jammer, ``ObliviousJammer(budget=1, start=10**6)``: it is
not null, so ``Channel.active_model`` keeps it and the run takes the
per-round body, but it never fires before the budgets below end and
draws no randomness, so both runs read the same streams and must agree
exactly - through the stacked entry point and through a solo run, on
no-CD and CD channels, at budgets inside, at and across block
boundaries, and for one-shot horizons that end mid-block.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import (
    Channel,
    ObliviousJammer,
    run_schedule_stacked,
    run_uniform_batch,
)
from repro.core.uniform import ProbabilitySchedule, ScheduleProtocol
from repro.infotheory.distributions import SizeDistribution
from repro.protocols.decay import DecayProtocol
from repro.protocols.sorted_probing import SortedProbingProtocol

N = 2**10
TRIALS = 64
BUDGETS = (1, 7, 16, 17, 33, 45, 161)
INERT = ObliviousJammer(budget=1, start=10**6)


def _prediction() -> SizeDistribution:
    return SizeDistribution.range_uniform_subset(N, [2, 4, 6, 8])


def _protocols() -> list:
    return [
        DecayProtocol(N),
        DecayProtocol(N, cycle=False),  # a 10-round horizon
        SortedProbingProtocol(_prediction(), one_shot=True),
        SortedProbingProtocol(_prediction(), one_shot=False),
        # A one-shot horizon (37) that ends inside the third block.
        ScheduleProtocol(
            ProbabilitySchedule([1.0 / (300 + 10 * r) for r in range(37)]),
            cycle=False,
        ),
    ]


def _ks(point: int) -> np.ndarray:
    return np.random.default_rng([11, point]).integers(1, 300, size=TRIALS)


def _run(engine: str, channel: Channel, max_rounds: int) -> list:
    protocols = _protocols()
    rngs = [np.random.default_rng([19, j]) for j in range(len(protocols))]
    if engine == "stacked":
        return run_schedule_stacked(
            [protocol.batch_schedule() for protocol in protocols],
            [_ks(j) for j in range(len(protocols))],
            rngs,
            channel=channel,
            max_rounds=max_rounds,
        )
    return [
        run_uniform_batch(
            protocol, _ks(j), rng, channel=channel, max_rounds=max_rounds
        )
        for j, (protocol, rng) in enumerate(zip(protocols, rngs))
    ]


def test_inert_jammer_is_active_and_never_fires():
    """The reference really takes the per-round body and changes nothing."""
    assert Channel(False, INERT).active_model is INERT
    assert not INERT.needs_fault_draws
    assert not any(INERT.jams_round(r) for r in range(1, max(BUDGETS) + 1))


@pytest.mark.parametrize("engine", ["stacked", "solo"])
@pytest.mark.parametrize("cd", [False, True], ids=["nocd", "cd"])
@pytest.mark.parametrize("max_rounds", BUDGETS)
def test_faithful_schedule_equals_per_round_reference(engine, cd, max_rounds):
    faithful = _run(engine, Channel(cd), max_rounds)
    reference = _run(engine, Channel(cd, INERT), max_rounds)
    assert len(faithful) == len(reference) == len(_protocols())
    for point, (got, want) in enumerate(zip(faithful, reference)):
        assert got.max_rounds == want.max_rounds == max_rounds
        np.testing.assert_array_equal(got.ks, want.ks, err_msg=f"point {point}")
        np.testing.assert_array_equal(
            got.solved, want.solved, err_msg=f"point {point} solved"
        )
        np.testing.assert_array_equal(
            got.rounds, want.rounds, err_msg=f"point {point} rounds"
        )
