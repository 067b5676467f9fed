"""The open schedule engine's band table against per-round band edges.

``open-schedule`` reads each trial's band edges from a (schedule
position x occupancy) table built once per run; a schedule whose table
would pass the cell budget computes the edges every round instead.
Both must give the edges :func:`~repro.channel.batch._band_edges`
gives for the trial's probability and occupancy, bit for bit.
"""

import numpy as np
import pytest

from repro.channel import without_collision_detection
from repro.channel.batch import _band_edges
from repro.opensys import ExponentialBackoffPolicy, PoissonArrivals, run_open
from repro.opensys import driver as open_driver
from repro.protocols.decay import DecayProtocol
from repro.protocols.jiang_zheng import JiangZhengProtocol

CAPACITY = 40


@pytest.mark.parametrize(
    "protocol",
    [DecayProtocol(1024), DecayProtocol(128, cycle=False), JiangZhengProtocol(4096)],
    ids=lambda protocol: protocol.name,
)
@pytest.mark.parametrize("tabled", [True, False], ids=["table", "per-round"])
def test_edges_equal_the_per_round_band_edges(protocol, tabled, monkeypatch):
    if not tabled:
        monkeypatch.setattr(open_driver, "_BAND_TABLE_CELLS", 0)
    trials = 300
    source = open_driver._OpenScheduleSource(protocol, trials, CAPACITY)
    rng = np.random.default_rng(5)
    epochs = rng.integers(0, 400, trials)
    occupancy = rng.integers(0, CAPACITY + 1, trials)
    source._epoch_round[:] = epochs
    probabilities = np.asarray(protocol.batch_schedule().probabilities)
    expected = _band_edges(
        probabilities[epochs % probabilities.size], occupancy.astype(float)
    )
    lo, hi = source.edges(occupancy)
    assert (source._lo is not None) == tabled
    assert np.array_equal(lo, expected[0]) and np.array_equal(hi, expected[1])


def test_untabled_run_matches_the_tabled_run_and_the_oracle(monkeypatch):
    protocol = JiangZhengProtocol(128, cycle=False)
    common = dict(
        channel=without_collision_detection(),
        trials=12,
        rounds=256,
        warmup=32,
        capacity=12,
        timeout=24,
        retry=ExponentialBackoffPolicy(base=2, cap=32, jitter=4, budget=5),
        seed=7,
    )
    arrivals = PoissonArrivals(0.3)
    tabled = run_open(protocol, arrivals, **common)
    scalar = run_open(protocol, arrivals, batch=False, **common)
    monkeypatch.setattr(open_driver, "_BAND_TABLE_CELLS", 0)
    untabled = run_open(protocol, arrivals, **common)
    assert untabled.engine == tabled.engine == open_driver.ENGINE_OPEN_SCHEDULE
    assert untabled.store == tabled.store == scalar.store
