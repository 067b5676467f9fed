"""The vectorized engines' seeding kernel against numpy's own seeding.

``open-schedule`` and ``open-history`` seed every trial's two
generators from one vectorized port of ``SeedSequence``'s hash
(``_spawn_states``), handed to each ``PCG64`` through ``_SpawnedState``;
the ``open-scalar`` oracle keeps numpy's ``SeedSequence`` objects
(``_trial_streams``).  The port must give numpy's words for every seed,
key and child, so both kinds of engine draw the same numbers.  Seeds
and keys of one, two and more 32-bit words are covered: a key's word
count changes its entropy's length, so the kernel hashes each key length
in its own pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.opensys.driver import (
    _seeded_streams,
    _spawn_states,
    _SpawnedState,
    _trial_streams,
)

SEEDS = [0, 1, 2021, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 3, 2**200 + 9]
KEYS = [
    *range(601),
    *(int(key) for key in np.random.default_rng(7).integers(0, 2**32, 200)),
    2**32 - 1,
    2**32,
    2**40,
    2**64 + 1,
]


def numpy_state(seed: int, key: int, child: int) -> np.ndarray:
    sequence = np.random.SeedSequence(seed, spawn_key=(key, child))
    return sequence.generate_state(4, np.uint64)


@pytest.mark.parametrize("child", [0, 1])
@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_words_and_draws_equal_numpys(seed, child):
    states = _spawn_states(seed, KEYS, child)
    assert states.shape == (len(KEYS), 4) and states.dtype == np.uint64
    for key, state in zip(KEYS, states):
        assert (state == numpy_state(seed, key, child)).all(), key
        ours = np.random.PCG64(_SpawnedState(state))
        theirs = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key, child)))
        assert (ours.random_raw(8) == theirs.random_raw(8)).all(), key


def test_keys_of_mixed_length_in_any_order():
    keys = [2**64 + 1, 3, 2**32, 2**32 - 1, 2**96, 0, 2**40]
    states = _spawn_states(2021, keys, 1)
    for key, state in zip(keys, states):
        assert (state == numpy_state(2021, key, 1)).all(), key


@pytest.mark.parametrize("trial_offset", [0, 5, 2**32 - 2])
def test_seeded_streams_draw_what_trial_streams_draw(trial_offset):
    seeded = _seeded_streams(2021, 4, trial_offset)
    reference = _trial_streams(2021, 4, trial_offset)
    for pair, reference_pair in zip(seeded, reference):
        for ours, theirs in zip(pair, reference_pair):
            assert (ours.random(8) == theirs.random(8)).all()
            assert (ours.poisson(0.25, 8) == theirs.poisson(0.25, 8)).all()


@pytest.mark.parametrize(
    "n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64)]
)
def test_a_spawned_state_refuses_any_other_request(n_words, dtype):
    state = _SpawnedState(_spawn_states(2021, [0], 0)[0])
    with pytest.raises(ValueError, match="exactly 4 uint64 words"):
        state.generate_state(n_words, dtype)
