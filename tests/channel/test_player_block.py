"""Faithful player scans against the scalar loop and the per-round body.

The deterministic candidate scan reads no feedback and draws nothing,
so on a faithful channel (no active channel model) the player engine
may settle its trials a block of rounds at a time; every other run
steps round by round.  Two references hold it, array for array:

* the scalar ``run_players`` loop, trial by trial (the exactness
  contract of the deterministic player protocols);
* the same engine call under an *inert* jammer,
  ``ObliviousJammer(budget=1, start=10**6)``: it is not null, so
  ``Channel.active_model`` keeps it and the run takes the per-round
  body, but it never fires before the budgets below end and draws
  nothing.

The grid covers passes shorter than, equal to and longer than a block
(n = 64 with b = 3 is an 8-round pass; n = 100 is not a power of two),
clean and bit-flipped advice (wrong advice exhausts the pass), budgets
inside, at and across block and pass boundaries, no-CD and CD, and both
entry points: a solo ``run_players_batch`` per point and one two-point
``run_players_stacked`` call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel import (
    Channel,
    ObliviousJammer,
    pack_participants,
    run_players,
    run_players_batch,
    run_players_stacked,
)
from repro.channel.network import RandomAdversary, SuffixAdversary
from repro.core.advice import MinIdPrefixAdvice
from repro.core.faulty_advice import BitFlipAdvice
from repro.protocols import (
    BinaryExponentialBackoff,
    DecayProtocol,
    DeterministicScanProtocol,
    DeterministicTreeDescentProtocol,
    FallbackPlayerProtocol,
    UniformAsPlayerProtocol,
)

SIZES = ((64, 3), (100, 2), (256, 0))  # (n, advice bits)
BUDGETS = (1, 7, 8, 9, 16, 17, 33, "pass", "pass+1", "pass+17")
PASS_OFFSETS = {"pass": 0, "pass+1": 1, "pass+17": 17}
POINTS = 2
TRIALS = 24
INERT = ObliviousJammer(budget=1, start=10**6)
ADVERSARIES = {"random": RandomAdversary(), "suffix": SuffixAdversary()}


def _budget(label: int | str, scan: DeterministicScanProtocol, n: int) -> int:
    if isinstance(label, int):
        return label
    return scan.worst_case_rounds(n) + PASS_OFFSETS[label]


def _advice(bits: int, corrupt: bool, point: int):
    """A fresh advice function: equal calls replay equal strings."""
    clean = MinIdPrefixAdvice(bits)
    if not corrupt:
        return clean
    return BitFlipAdvice(clean, 0.3, np.random.default_rng([31, point]))


def _participants(adversary: str, n: int, point: int) -> list[frozenset[int]]:
    rng = np.random.default_rng([29, point])
    ks = rng.integers(1, 5, size=TRIALS)
    return [ADVERSARIES[adversary].checked_select(n, int(k), rng) for k in ks]


def _scalar(protocol, sets, n, channel, advice, max_rounds):
    rng = np.random.default_rng(0)
    runs = [
        run_players(
            protocol, participants, n, rng, channel=channel,
            advice_function=advice, max_rounds=max_rounds,
        )
        for participants in sets
    ]
    return (
        np.array([run.solved for run in runs]),
        np.array([run.rounds for run in runs], dtype=np.int64),
    )


def _engine(engine, protocol, points, n, channel, bits, corrupt, max_rounds):
    """Per-point ``(solved, rounds)`` arrays from one engine entry point."""
    if engine == "solo":
        runs = [
            run_players_batch(
                protocol, sets, n, np.random.default_rng(0), channel=channel,
                advice_function=_advice(bits, corrupt, point),
                max_rounds=max_rounds,
            )
            for point, sets in enumerate(points)
        ]
        return [(run.solved, run.rounds) for run in runs]
    advice = []
    for point, sets in enumerate(points):
        source = _advice(bits, corrupt, point)
        advice.extend(source.checked_advise(s, n) for s in sets)
    run = run_players_stacked(
        protocol, [s for sets in points for s in sets], n, advice,
        channel=channel, max_rounds=max_rounds,
    )
    assert run.max_rounds == max_rounds
    return [
        (run.solved[j * TRIALS : (j + 1) * TRIALS],
         run.rounds[j * TRIALS : (j + 1) * TRIALS])
        for j in range(len(points))
    ]


def test_scan_block_counts_transmitters_and_advances():
    """Column c counts round c of the block; the pass ends at ``playable``."""
    ids = pack_participants([frozenset({1, 5}), frozenset({60, 61, 63})])
    scan = DeterministicScanProtocol(3)  # n = 64: an 8-round pass
    # Advice "000" and "111", as the int64 values the engines hand over.
    sessions = scan.batch_sessions(ids, 64, np.array([0b000, 0b111]))
    live = np.array([0, 1])
    counts, playable = sessions.block_counts(live, 4)
    assert playable == 4
    np.testing.assert_array_equal(counts, [[0, 1, 0, 0], [0, 0, 0, 0]])
    # The call advanced the sessions by 4 rounds: round 5 is slot 4.
    decisions, exhausted = sessions.decide(live[1:])
    np.testing.assert_array_equal(decisions, [[True, False, False]])
    assert not exhausted.any()
    counts, playable = sessions.block_counts(live, 16)
    assert playable == 3  # slots 5, 6 and 7 are left
    np.testing.assert_array_equal(counts[:, :4], [[1, 0, 0, 0], [1, 0, 1, 0]])
    assert not counts[:, 4:].any()
    counts, playable = sessions.block_counts(live, 16)
    assert playable == 0 and not counts.any()


NO_BLOCK_HOOK = {
    "descent": lambda: DeterministicTreeDescentProtocol(3),
    "backoff": lambda: BinaryExponentialBackoff(),
    "uniform-as-player": lambda: UniformAsPlayerProtocol(DecayProtocol(64)),
    # A fallback whose primary is a scan still steps round by round.
    "fallback": lambda: FallbackPlayerProtocol(
        DeterministicScanProtocol(3), DeterministicScanProtocol(0),
        budget_rounds=8,
    ),
}


@pytest.mark.parametrize("label", sorted(NO_BLOCK_HOOK))
def test_other_sessions_answer_none_without_side_effect(label):
    protocol = NO_BLOCK_HOOK[label]()
    ids = pack_participants([frozenset({1, 5}), frozenset({60, 61, 63})])
    advice = np.zeros(2, dtype=np.int64)  # all-zero advice strings
    probed = protocol.batch_sessions(
        ids, 64, advice, rng=np.random.default_rng(3)
    )
    fresh = protocol.batch_sessions(
        ids, 64, advice, rng=np.random.default_rng(3)
    )
    live = np.array([0, 1])
    assert probed.block_counts(live, 16) is None
    for got, want in zip(probed.decide(live), fresh.decide(live)):
        np.testing.assert_array_equal(got, want)


def test_inert_jammer_is_active_and_never_fires():
    """The reference really takes the per-round body and changes nothing."""
    assert Channel(False, INERT).active_model is INERT
    assert Channel(True, INERT).active_model is INERT
    assert not INERT.needs_fault_draws
    assert not INERT.shrinks_population
    assert not any(INERT.jams_round(r) for r in range(1, 256 + 17 + 1))


@pytest.mark.parametrize("engine", ["solo", "stacked"])
@pytest.mark.parametrize("cd", [False, True], ids=["nocd", "cd"])
@pytest.mark.parametrize("budget", BUDGETS, ids=str)
@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "bitflip"])
@pytest.mark.parametrize("n,bits", SIZES, ids=[f"n{n}-b{b}" for n, b in SIZES])
def test_faithful_scan_equals_scalar_and_per_round(
    n, bits, corrupt, adversary, budget, cd, engine
):
    protocol = DeterministicScanProtocol(bits)
    max_rounds = _budget(budget, protocol, n)
    points = [_participants(adversary, n, point) for point in range(POINTS)]
    faithful = _engine(
        engine, protocol, points, n, Channel(cd), bits, corrupt, max_rounds
    )
    reference = _engine(
        engine, protocol, points, n, Channel(cd, INERT), bits, corrupt,
        max_rounds,
    )
    for point, sets in enumerate(points):
        solved, rounds = faithful[point]
        want_solved, want_rounds = _scalar(
            protocol, sets, n, Channel(cd), _advice(bits, corrupt, point),
            max_rounds,
        )
        np.testing.assert_array_equal(
            solved, want_solved, err_msg=f"point {point} solved vs scalar"
        )
        np.testing.assert_array_equal(
            rounds, want_rounds, err_msg=f"point {point} rounds vs scalar"
        )
        np.testing.assert_array_equal(
            solved, reference[point][0], err_msg=f"point {point} solved"
        )
        np.testing.assert_array_equal(
            rounds, reference[point][1], err_msg=f"point {point} rounds"
        )
