"""The vectorized engines' two-block refill against one-block refills.

``_run_open_batch`` pre-draws its arrivals and channel uniforms two
32-round blocks at a time into buffers it allocates once per run, while
the ``open-scalar`` oracle refills one block at a time into new arrays.
The blocks keep their absolute boundaries, so both must hand every
trial the same numbers for every round: a width-free process (Poisson)
draws a two-block span in one call, every other family one call per
block.  Round counts around the block and span widths cover short and
partial last spans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.opensys import PoissonArrivals, arrival_process_from_dict
from repro.opensys.driver import (
    _OPEN_BLOCK_ROUNDS,
    _refill_blocks,
    _seeded_streams,
    _trial_streams,
)

FAMILIES = {
    "poisson": {"family": "poisson", "rate": 0.7},
    "zipf-hotspot": {"family": "zipf-hotspot", "rate": 0.3, "max_batch": 8},
    "bursty": {"family": "bursty", "devices": 40, "thin": 0.5},
    "trace": {"family": "trace", "counts": [3, 1, 5, 1, 9, 2, 7], "thin": 0.6},
}
TRIALS = 3
COLUMNS = 3


def one_block_refills(spec, rounds, trial_offset):
    """Every round's draws, one block per refill, as the oracle draws them."""
    process = arrival_process_from_dict(spec)
    processes = [process.clone() for _ in range(TRIALS)]
    streams = _trial_streams(2021, TRIALS, trial_offset)
    blocks = [
        _refill_blocks(processes, streams, start, rounds, COLUMNS)
        for start in range(1, rounds + 1, _OPEN_BLOCK_ROUNDS)
    ]
    return (
        np.concatenate([counts for counts, _ in blocks], axis=1),
        np.concatenate([draws for _, draws in blocks], axis=1),
    )


def two_block_refills(spec, rounds, trial_offset):
    """Every round's draws, refilled in place two blocks at a time."""
    process = arrival_process_from_dict(spec)
    processes = [process.clone() for _ in range(TRIALS)]
    streams = _seeded_streams(2021, TRIALS, trial_offset)
    span = min(2 * _OPEN_BLOCK_ROUNDS, rounds)
    buffers = (
        np.empty((TRIALS, span), dtype=np.int64),
        np.empty((TRIALS, span, COLUMNS)),
    )
    counts, draws = [], []
    for start in range(1, rounds + 1, span):
        filled = _refill_blocks(processes, streams, start, rounds, COLUMNS, buffers)
        assert all(array is buffer for array, buffer in zip(filled, buffers))
        width = min(span, rounds - start + 1)
        counts.append(buffers[0][:, :width].copy())
        draws.append(buffers[1][:, :width].copy())
    return np.concatenate(counts, axis=1), np.concatenate(draws, axis=1)


@pytest.mark.parametrize("trial_offset", [0, 5])
@pytest.mark.parametrize("rounds", [1, 31, 32, 33, 64, 65, 150])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_two_block_refill_equals_one_block_refills(family, rounds, trial_offset):
    counts, draws = two_block_refills(FAMILIES[family], rounds, trial_offset)
    expected_counts, expected_draws = one_block_refills(
        FAMILIES[family], rounds, trial_offset
    )
    assert counts.shape == (TRIALS, rounds)
    assert draws.shape == (TRIALS, rounds, COLUMNS)
    assert (counts == expected_counts).all()
    assert (draws == expected_draws).all()
    if rounds > 30:
        assert counts.any()


class TestWidthFree:
    """Which processes may draw two blocks in one ``sample_rounds`` call."""

    @pytest.mark.parametrize("rate", [0.25, 3.0, 40.0])
    @pytest.mark.parametrize("first, second", [(32, 32), (1, 63), (17, 5)])
    def test_poisson_draws_do_not_depend_on_the_width(self, rate, first, second):
        process = PoissonArrivals(rate)
        whole = process.sample_rounds(np.random.default_rng(3), first + second)
        rng = np.random.default_rng(3)
        parts = [process.sample_rounds(rng, width) for width in (first, second)]
        assert (whole == np.concatenate(parts)).all()

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_only_poisson_is_width_free(self, family):
        process = arrival_process_from_dict(FAMILIES[family])
        assert process.width_free is (family == "poisson")
