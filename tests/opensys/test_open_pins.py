"""Golden pins for the open engines' random outputs.

The vectorized open engines seed every trial through ``_seeded_streams``
and refill two blocks at a time, while the ``open-scalar`` oracle keeps
``_trial_streams`` and one-block refills; the two sides share only
``_refill_blocks`` and ``_column_layout`` (in
:mod:`repro.opensys.driver`), so the oracle comparison of
``TestBitIdentity`` cannot notice a change there: both sides would move
together.  These pins do.  Each case runs
one arrival family under one request lifecycle on one engine, vectorized
and again through the oracle, and pins the store's arrivals, completed
and attempts counters plus a SHA-256 prefix of its serialized form.

The families cover both kinds of ``sample_rounds`` call: Poisson draws
one kind of variate, while zipf-hotspot (events, then batch sizes) and
bursty (Markov regimes, then binomials) interleave two, so a change of
block width moves them even where Poisson would not notice.  Trace
arrivals exercise the stateful cursor.  ``ROUNDS`` is not a multiple of
the block width, so the short last block is pinned too.

The values move only with a deliberate change to the open engines'
stream contract; any other change that moves them is a bug.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.channel import (
    NoisyChannel,
    with_collision_detection,
    without_collision_detection,
)
from repro.opensys import (
    ENGINE_OPEN_HISTORY,
    ENGINE_OPEN_SCALAR,
    ENGINE_OPEN_SCHEDULE,
    ExponentialBackoffPolicy,
    ImmediateRetryPolicy,
    OccupancySheddingPolicy,
    TokenBucketPolicy,
    arrival_process_from_dict,
    run_open,
)
from repro.protocols.decay import DecayProtocol
from repro.protocols.willard import WillardProtocol

N = 128
TRIALS = 8
ROUNDS = 150
SEED = 31

ARRIVALS = {
    "poisson": {"family": "poisson", "rate": 0.2},
    "zipf-hotspot": {"family": "zipf-hotspot", "rate": 0.06, "alpha": 1.2},
    "bursty": {"family": "bursty", "devices": 40, "thin": 0.05},
    "trace": {"family": "trace", "counts": [1, 3, 1, 2, 5], "thin": 0.3},
}

#: lifecycle label -> factory of its ``run_open`` keyword arguments
LIFECYCLES = {
    "none": dict,
    "backoff-shed": lambda: dict(
        timeout=24,
        retry=ExponentialBackoffPolicy(base=2, cap=32, jitter=8, budget=4),
        admission=OccupancySheddingPolicy(threshold=0.5),
    ),
    "immediate-bucket": lambda: dict(
        retry=ImmediateRetryPolicy(budget=3),
        admission=TokenBucketPolicy(rate=0.3, burst=2.0),
    ),
}

#: engine label -> (protocol, channel factory, vectorized engine)
ENGINES = {
    "decay": (
        DecayProtocol(N), without_collision_detection, ENGINE_OPEN_SCHEDULE
    ),
    "willard-cd": (
        WillardProtocol(N), with_collision_detection, ENGINE_OPEN_HISTORY
    ),
}

#: Extra cases beyond the family x lifecycle x engine grid: a
#: fault-drawing channel model (a fault column ahead of the policy
#: columns) and a shard at a non-zero trial offset.
NOISE = NoisyChannel(
    silence_to_collision=0.08, collision_to_silence=0.05, success_erasure=0.1
)
EXTRAS = {
    "noise": ("zipf-hotspot", "backoff-shed", {"model": NOISE}),
    "offset": ("bursty", "immediate-bucket", {"trial_offset": 5}),
}


def observe(
    engine: str,
    arrivals: str,
    lifecycle: str,
    batch: bool,
    *,
    model=None,
    trial_offset: int = 0,
) -> tuple[str, tuple[int, int, int, str]]:
    """The engine that ran, and the pin of the store it produced."""
    protocol, channel, _ = ENGINES[engine]
    result = run_open(
        protocol,
        arrival_process_from_dict(ARRIVALS[arrivals]),
        channel=channel(model),
        trials=TRIALS,
        rounds=ROUNDS,
        warmup=10,
        capacity=12,
        seed=SEED,
        trial_offset=trial_offset,
        batch=None if batch else False,
        **LIFECYCLES[lifecycle](),
    )
    store = result.store
    digest = hashlib.sha256(
        json.dumps(store.to_dict(), sort_keys=True).encode()
    ).hexdigest()[:12]
    return result.engine, (
        store.arrivals, store.completed, store.attempts, digest
    )


CASES = [
    (f"{engine}/{arrivals}/{lifecycle}", engine, arrivals, lifecycle, {})
    for engine in ENGINES
    for arrivals in ARRIVALS
    for lifecycle in LIFECYCLES
] + [
    (f"{engine}/{extra}", engine, *spec)
    for engine in ENGINES
    for extra, spec in EXTRAS.items()
]


@pytest.mark.parametrize("batch", [True, False], ids=["vectorized", "scalar"])
@pytest.mark.parametrize(
    "case_id,engine,arrivals,lifecycle,extra",
    CASES,
    ids=[case[0] for case in CASES],
)
def test_open_outputs_are_pinned(
    case_id, engine, arrivals, lifecycle, extra, batch
):
    ran, pin = observe(engine, arrivals, lifecycle, batch, **extra)
    assert ran == (ENGINES[engine][2] if batch else ENGINE_OPEN_SCALAR)
    assert pin == PINS[case_id]


#: ``(arrivals, completed, attempts, digest prefix)`` per case; the
#: vectorized engine and the oracle share each pin.
PINS = {
    "decay/poisson/none": (245, 202, 245, "463f347fd2b5"),
    "decay/poisson/backoff-shed": (245, 208, 285, "b2c06f899be5"),
    "decay/poisson/immediate-bucket": (245, 186, 407, "7a197c4881d6"),
    "decay/zipf-hotspot/none": (548, 171, 548, "a52738905b1f"),
    "decay/zipf-hotspot/backoff-shed": (548, 184, 1741, "59782f9c0e0d"),
    "decay/zipf-hotspot/immediate-bucket": (548, 102, 1869, "87558b9759ab"),
    "decay/bursty/none": (158, 140, 158, "b9c87bd37ed7"),
    "decay/bursty/backoff-shed": (158, 134, 165, "da30b1795b1a"),
    "decay/bursty/immediate-bucket": (158, 130, 220, "c47dda714f19"),
    "decay/trace/none": (900, 191, 900, "d0b8c28a2a4c"),
    "decay/trace/backoff-shed": (900, 208, 3151, "7a800b35d087"),
    "decay/trace/immediate-bucket": (900, 236, 3203, "17daac5831d2"),
    "willard-cd/poisson/none": (245, 204, 245, "051c3688f6f2"),
    "willard-cd/poisson/backoff-shed": (245, 198, 271, "3192301acd2f"),
    "willard-cd/poisson/immediate-bucket": (245, 190, 407, "92cc6726f889"),
    "willard-cd/zipf-hotspot/none": (548, 214, 548, "866e6f92e19a"),
    "willard-cd/zipf-hotspot/backoff-shed": (548, 238, 1586, "4b82f7716339"),
    "willard-cd/zipf-hotspot/immediate-bucket":
        (548, 101, 1869, "cd7fc85e91db"),
    "willard-cd/bursty/none": (158, 136, 158, "377e9cdf21b5"),
    "willard-cd/bursty/backoff-shed": (158, 130, 163, "ff9ba75c0b84"),
    "willard-cd/bursty/immediate-bucket": (158, 127, 220, "04143ebf498c"),
    "willard-cd/trace/none": (900, 292, 900, "c12a78245fd5"),
    "willard-cd/trace/backoff-shed": (900, 308, 2958, "1ef6876e3649"),
    "willard-cd/trace/immediate-bucket": (900, 274, 3202, "86a4b60dd47d"),
    "decay/noise": (548, 169, 1746, "d83faf581119"),
    "decay/offset": (163, 141, 206, "a1106433d1f9"),
    "willard-cd/noise": (548, 225, 1642, "66b9346b701b"),
    "willard-cd/offset": (163, 137, 206, "bfac0c3c6066"),
}
