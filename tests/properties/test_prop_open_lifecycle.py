"""Property-based test (hypothesis): the vectorized open lifecycle is the
oracle's.

The fixed open tests pick a handful of policy combinations.  Here any
retry policy, admission policy, capacity, timeout, warmup, trial count
and trial offset, on a schedule protocol (cycling or one-shot) or a
history protocol, must give ``open-schedule``/``open-history`` exactly
the store of the ``open-scalar`` oracle, which fails, releases and
admits requests one by one in plain lists.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import with_collision_detection, without_collision_detection
from repro.opensys import (
    ExponentialBackoffPolicy,
    GiveUpPolicy,
    HardCapacityPolicy,
    ImmediateRetryPolicy,
    OccupancySheddingPolicy,
    PoissonArrivals,
    TokenBucketPolicy,
    run_open,
)
from repro.protocols.decay import DecayProtocol
from repro.protocols.jiang_zheng import JiangZhengProtocol
from repro.protocols.willard import WillardProtocol

budgets = st.one_of(st.none(), st.integers(0, 4))

retries = st.one_of(
    st.just(GiveUpPolicy()),
    st.builds(ImmediateRetryPolicy, budget=budgets),
    st.builds(
        ExponentialBackoffPolicy,
        base=st.integers(1, 3),
        cap=st.integers(3, 16),
        jitter=st.integers(0, 9),
        budget=budgets,
    ),
)

admissions = st.one_of(
    st.just(HardCapacityPolicy()),
    st.builds(
        TokenBucketPolicy,
        rate=st.floats(0.2, 2.0),
        burst=st.sampled_from([1.0, 3.0]),
    ),
    st.builds(
        OccupancySheddingPolicy,
        threshold=st.floats(0.0, 0.9),
        power=st.sampled_from([1.0, 2.0]),
    ),
)

protocols = st.sampled_from([
    (DecayProtocol(64), without_collision_detection()),
    (DecayProtocol(64, cycle=False, handle_k1=True), without_collision_detection()),
    (JiangZhengProtocol(64, cycle=False), without_collision_detection()),
    (WillardProtocol(64), with_collision_detection()),
])


@given(
    protocol=protocols,
    retry=retries,
    admission=admissions,
    rate=st.sampled_from([0.1, 0.5, 2.0]),
    capacity=st.integers(1, 12),
    timeout=st.one_of(st.none(), st.integers(1, 24)),
    rounds=st.integers(1, 90),
    warmup_share=st.floats(0.0, 0.9),
    trials=st.integers(1, 5),
    trial_offset=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_vectorized_store_equals_the_oracle(
    protocol, retry, admission, rate, capacity, timeout, rounds,
    warmup_share, trials, trial_offset, seed,
):
    protocol, channel = protocol
    common = dict(
        channel=channel,
        trials=trials,
        rounds=rounds,
        warmup=int(warmup_share * rounds),
        capacity=capacity,
        timeout=timeout,
        retry=retry,
        admission=admission,
        seed=seed,
        trial_offset=trial_offset,
    )
    arrivals = PoissonArrivals(rate)
    vectorized = run_open(protocol, arrivals, **common)
    scalar = run_open(protocol, arrivals, batch=False, **common)
    assert vectorized.engine != scalar.engine
    assert vectorized.store == scalar.store
