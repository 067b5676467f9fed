"""Batch/scalar equivalence for the vectorized player engine.

The batch player engine runs the *same* per-player state machine as the
scalar per-player loop, stacked along a trial axis (``channel/
batch_players.py``).  Equivalence is therefore asserted two ways:

* **exactly**, trial by trial, for the deterministic advice protocols
  (candidate scan, tree descent) - including under deterministic faulty
  advice, which exercises the exhaustion path;
* **statistically**, on solved/rounds statistics of fixed-seed batches,
  for the randomized protocols (backoff, the per-player views of the
  uniform/advice protocols) - both paths draw the same per-player
  Bernoulli decisions, only the RNG stream order differs, so the
  comparisons are deterministic given the seeds and never flake.

Coverage spans every batchable registry player protocol x advice
function x channel pairing, plus the engine contracts: solved rows must
freeze (stop consuming randomness), non-batchable combinators must be
rejected loudly.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    ENGINE_BATCH_PLAYER,
    ENGINE_SCALAR_PLAYER,
    estimate_player_rounds,
    route,
)
from repro.channel import (
    pack_participants,
    run_players,
    run_players_batch,
    run_players_stacked,
)
from repro.channel.channel import Channel
from repro.channel.models import (
    CrashModel,
    NoisyChannel,
    ObliviousJammer,
    ReactiveJammer,
)
from repro.channel.network import (
    ClusteredAdversary,
    PrefixAdversary,
    RandomAdversary,
    SpreadAdversary,
    SuffixAdversary,
)
from repro.core.advice import (
    AdviceError,
    AdviceFunction,
    FullIdAdvice,
    MinIdPrefixAdvice,
    NullAdvice,
    RangeBlockAdvice,
    id_bit_width,
    id_to_bits,
)
from repro.core.protocol import ProtocolError
from repro.protocols import (
    BinaryExponentialBackoff,
    DecayProtocol,
    DeterministicScanProtocol,
    DeterministicTreeDescentProtocol,
    FallbackPlayerProtocol,
    TruncatedDecayProtocol,
    UniformAsPlayerProtocol,
    WillardProtocol,
    truncated_willard_protocol,
)
from repro.protocols.restart import RestartProtocol

N = 2**8
TRIALS = 300
MAX_ROUNDS = 600


class _WrongSubtreeAdvice(AdviceFunction):
    """Deterministic faulty advice: points at the complement subtree.

    Replaces the min-id prefix with its bitwise complement, so the scan /
    descent trusts advice naming a subtree with no active player whenever
    the participants share the true prefix - the exhaustion ("give up
    cleanly") path, exercised identically by both engines because the
    corruption consumes no randomness.
    """

    def advise(self, participants, n: int) -> str:
        width = id_bit_width(n)
        true_prefix = id_to_bits(min(participants), width)[: self.bits]
        return "".join("1" if bit == "0" else "0" for bit in true_prefix)


class _FixedAdvice(AdviceFunction):
    """One fixed string for every participant set, valid or not."""

    def __init__(self, bits: int, advice: str) -> None:
        super().__init__(bits)
        self._advice = advice

    def advise(self, participants, n: int) -> str:
        del participants, n
        return self._advice


def _participant_batches(adversary, k: int, trials: int = TRIALS):
    rng = np.random.default_rng(97)
    return [adversary.checked_select(N, k, rng) for _ in range(trials)]


def _scalar_results(protocol, sets, channel, advice_function, seed):
    rng = np.random.default_rng(seed)
    solved, rounds = [], []
    for participants in sets:
        result = run_players(
            protocol,
            participants,
            N,
            rng,
            channel=channel,
            advice_function=advice_function,
            max_rounds=MAX_ROUNDS,
        )
        solved.append(result.solved)
        rounds.append(result.rounds)
    return np.asarray(solved), np.asarray(rounds)


DETERMINISTIC_CASES = [
    # (label, protocol factory, advice factory, cd, adversary)
    ("scan/b=0/no-cd", lambda: DeterministicScanProtocol(0),
     lambda: MinIdPrefixAdvice(0), False, RandomAdversary()),
    ("scan/b=3/no-cd", lambda: DeterministicScanProtocol(3),
     lambda: MinIdPrefixAdvice(3), False, RandomAdversary()),
    ("scan/b=3/cd", lambda: DeterministicScanProtocol(3),
     lambda: MinIdPrefixAdvice(3), True, SuffixAdversary()),
    ("scan/b=3/faulty", lambda: DeterministicScanProtocol(3),
     lambda: _WrongSubtreeAdvice(3), False, PrefixAdversary()),
    # Wrong advice *family*: range-block bits fed to a subtree scan are
    # budget-valid but point at the k-range, not the min id - a
    # deterministic mis-advice both engines must handle identically.
    ("scan/b=3/range-block", lambda: DeterministicScanProtocol(3),
     lambda: RangeBlockAdvice(3), False, RandomAdversary()),
    ("scan/full-id", lambda: DeterministicScanProtocol(id_bit_width(N)),
     lambda: FullIdAdvice(N), False, ClusteredAdversary()),
    ("descent/b=0", lambda: DeterministicTreeDescentProtocol(0),
     lambda: MinIdPrefixAdvice(0), True, RandomAdversary()),
    ("descent/b=4", lambda: DeterministicTreeDescentProtocol(4),
     lambda: MinIdPrefixAdvice(4), True, SpreadAdversary()),
    ("descent/b=4/faulty", lambda: DeterministicTreeDescentProtocol(4),
     lambda: _WrongSubtreeAdvice(4), True, ClusteredAdversary()),
    ("descent/full-id", lambda: DeterministicTreeDescentProtocol(id_bit_width(N)),
     lambda: FullIdAdvice(N), True, SuffixAdversary()),
]


class TestDeterministicExactness:
    """Deterministic protocols match the scalar engine trial by trial."""

    @pytest.mark.parametrize(
        "label,make_protocol,make_advice,cd,adversary",
        DETERMINISTIC_CASES,
        ids=[case[0] for case in DETERMINISTIC_CASES],
    )
    def test_batch_equals_scalar_per_trial(
        self, label, make_protocol, make_advice, cd, adversary,
        cd_channel, nocd_channel,
    ):
        channel = cd_channel if cd else nocd_channel
        protocol = make_protocol()
        assert protocol.supports_batch_sessions()
        sets = _participant_batches(adversary, k=4, trials=64)
        scalar_solved, scalar_rounds = _scalar_results(
            protocol, sets, channel, make_advice(), seed=5
        )
        batch = run_players_batch(
            protocol, sets, N, np.random.default_rng(6), channel=channel,
            advice_function=make_advice(), max_rounds=MAX_ROUNDS,
        )
        assert (batch.solved == scalar_solved).all(), label
        assert (batch.rounds == scalar_rounds).all(), label

    def test_varying_participant_sizes_pad_correctly(self, nocd_channel):
        """Trials of different k share one padded id array."""
        protocol = DeterministicScanProtocol(2)
        sets = [frozenset({10}), frozenset(range(20, 26)), frozenset({1, 250})]
        scalar_solved, scalar_rounds = _scalar_results(
            protocol, sets, nocd_channel, MinIdPrefixAdvice(2), seed=0
        )
        batch = run_players_batch(
            protocol, sets, N, np.random.default_rng(0),
            channel=nocd_channel, advice_function=MinIdPrefixAdvice(2),
            max_rounds=MAX_ROUNDS,
        )
        assert (batch.ks == np.array([1, 6, 2])).all()
        assert (batch.solved == scalar_solved).all()
        assert (batch.rounds == scalar_rounds).all()

    def test_faulty_advice_exhaustion_bookkeeping(self, nocd_channel):
        """A scan pointed at an empty subtree gives up after its pass with
        the scalar rounds-played convention."""
        protocol = DeterministicScanProtocol(3)
        sets = [frozenset({0, 1})] * 5  # true prefix 000 -> advice says 111
        batch = run_players_batch(
            protocol, sets, N, np.random.default_rng(0),
            channel=nocd_channel, advice_function=_WrongSubtreeAdvice(3),
            max_rounds=MAX_ROUNDS,
        )
        assert not batch.solved.any()
        assert (batch.rounds == protocol.worst_case_rounds(N)).all()


RANDOMIZED_CASES = [
    ("backoff", lambda: BinaryExponentialBackoff(), True),
    ("uap-decay/no-cd", lambda: UniformAsPlayerProtocol(DecayProtocol(N)), False),
    ("uap-decay-one-shot",
     lambda: UniformAsPlayerProtocol(DecayProtocol(N, cycle=False)), False),
    ("uap-willard/cd", lambda: UniformAsPlayerProtocol(WillardProtocol(N)), True),
    ("uap-truncated-decay",
     lambda: UniformAsPlayerProtocol(
         TruncatedDecayProtocol.for_count(N, 1, 8)), False),
    ("uap-truncated-willard",
     lambda: UniformAsPlayerProtocol(
         truncated_willard_protocol(N, 1, 0)), True),
]


class TestRandomizedStatistics:
    """Randomized protocols agree statistically across the two engines."""

    @pytest.mark.parametrize(
        "label,make_protocol,cd",
        RANDOMIZED_CASES,
        ids=[case[0] for case in RANDOMIZED_CASES],
    )
    def test_statistics_agree(
        self, label, make_protocol, cd, cd_channel, nocd_channel
    ):
        channel = cd_channel if cd else nocd_channel
        protocol = make_protocol()
        assert protocol.supports_batch_sessions()
        sets = _participant_batches(RandomAdversary(), k=8)
        scalar_solved, scalar_rounds = _scalar_results(
            protocol, sets, channel, None, seed=11
        )
        batch = run_players_batch(
            protocol, sets, N, np.random.default_rng(13), channel=channel,
            max_rounds=MAX_ROUNDS,
        )
        assert batch.solved.mean() == pytest.approx(
            scalar_solved.mean(), abs=0.05
        ), label
        if scalar_solved.any() and batch.num_solved:
            assert batch.solved_rounds().mean() == pytest.approx(
                scalar_rounds[scalar_solved].mean(), rel=0.15, abs=0.75
            ), label


class TestFallbackCombinator:
    """The vectorized fallback wrapper against its scalar reference."""

    def test_deterministic_fallback_matches_scalar_exactly(
        self, nocd_channel
    ):
        """scan(b) under wrong-subtree advice exhausts its pass, switches
        every trial to the advice-free scan(0), and must reproduce the
        scalar wrapper trial by trial (everything is deterministic)."""
        protocol = FallbackPlayerProtocol(
            DeterministicScanProtocol(3),
            DeterministicScanProtocol(0),
            budget_rounds=DeterministicScanProtocol(3).worst_case_rounds(N),
        )
        assert protocol.supports_batch_sessions()
        assert protocol.supports_fused_sessions()
        sets = _participant_batches(PrefixAdversary(), k=3, trials=48)
        scalar_solved, scalar_rounds = _scalar_results(
            protocol, sets, nocd_channel, _WrongSubtreeAdvice(3), seed=2
        )
        batch = run_players_batch(
            protocol, sets, N, np.random.default_rng(3), channel=nocd_channel,
            advice_function=_WrongSubtreeAdvice(3), max_rounds=MAX_ROUNDS,
        )
        assert (batch.solved == scalar_solved).all()
        assert (batch.rounds == scalar_rounds).all()
        assert batch.solved.any()  # the fallback actually rescued trials

    def test_descent_fallback_matches_scalar_exactly(self, cd_channel):
        """Tree descent under faulty advice gives up at the leaf and
        switches early (per-trial phase flip); the advice-free descent
        then recovers - exact agreement again."""
        protocol = FallbackPlayerProtocol(
            DeterministicTreeDescentProtocol(4),
            DeterministicTreeDescentProtocol(0),
            budget_rounds=DeterministicTreeDescentProtocol(4).worst_case_rounds(N),
        )
        sets = _participant_batches(ClusteredAdversary(), k=4, trials=48)
        scalar_solved, scalar_rounds = _scalar_results(
            protocol, sets, cd_channel, _WrongSubtreeAdvice(4), seed=4
        )
        batch = run_players_batch(
            protocol, sets, N, np.random.default_rng(5), channel=cd_channel,
            advice_function=_WrongSubtreeAdvice(4), max_rounds=MAX_ROUNDS,
        )
        assert (batch.solved == scalar_solved).all()
        assert (batch.rounds == scalar_rounds).all()
        assert batch.solved.any()

    def test_randomized_fallback_agrees_statistically(self, nocd_channel):
        """The ADVICE-ROBUST shape: deterministic scan falling back to a
        per-player decay view (randomized decisions)."""
        def make() -> FallbackPlayerProtocol:
            return FallbackPlayerProtocol(
                DeterministicScanProtocol(3),
                UniformAsPlayerProtocol(DecayProtocol(N)),
                budget_rounds=DeterministicScanProtocol(3).worst_case_rounds(N),
            )

        assert make().supports_batch_sessions()
        assert not make().supports_fused_sessions()  # randomized half
        sets = _participant_batches(RandomAdversary(), k=6)
        scalar_solved, scalar_rounds = _scalar_results(
            make(), sets, nocd_channel, _WrongSubtreeAdvice(3), seed=21
        )
        batch = run_players_batch(
            make(), sets, N, np.random.default_rng(23), channel=nocd_channel,
            advice_function=_WrongSubtreeAdvice(3), max_rounds=MAX_ROUNDS,
        )
        assert batch.solved.mean() == pytest.approx(
            scalar_solved.mean(), abs=0.05
        )
        if scalar_solved.any() and batch.num_solved:
            assert batch.solved_rounds().mean() == pytest.approx(
                scalar_rounds[scalar_solved].mean(), rel=0.15, abs=1.0
            )

    def test_staggered_exhaustion_gets_fresh_fallback_per_switch_round(
        self, nocd_channel
    ):
        """A primary may exhaust different rows at different rounds; each
        row's fallback must start from its own round 1 (the scalar
        wrapper creates the fallback session at the switch round), so
        late-switching rows may not join an already-advanced fallback."""
        from repro.core.protocol import (
            PlayerBatchSessions,
            PlayerProtocol,
            PlayerSession,
            ScheduleExhausted,
        )

        exhaust_rounds = (3, 4)  # trial 0 gives up at round 3, trial 1 at 4

        class _StaggeredSession(PlayerSession):
            def __init__(self, limit):
                self._limit = limit
                self._round = 0

            def decide(self):
                self._round += 1
                if self._round >= self._limit:
                    raise ScheduleExhausted("staggered give-up")
                return False

            def observe(self, observation, *, transmitted):
                del observation, transmitted

        class _StaggeredBatch(PlayerBatchSessions):
            def __init__(self, trials, players):
                self._shape = (trials, players)
                self._round = 0

            def decide(self, live):
                self._round += 1
                limits = np.asarray([exhaust_rounds[t] for t in live])
                return (
                    np.zeros((live.size, self._shape[1]), dtype=bool),
                    self._round >= limits,
                )

            def observe(self, live, observations, decisions):
                del live, observations, decisions

        class _StaggeredPrimary(PlayerProtocol):
            advice_bits = 0
            name = "staggered"

            def __init__(self):
                self._sessions_made = 0

            def session(self, player_id, n, advice, rng=None):
                # One player per trial, trials run in order: the session
                # index is the trial index.
                limit = exhaust_rounds[self._sessions_made]
                self._sessions_made += 1
                return _StaggeredSession(limit)

            def supports_batch_sessions(self):
                return True

            def batch_sessions(self, player_ids, n, advice, rng=None):
                return _StaggeredBatch(*player_ids.shape)

        def make_protocol() -> FallbackPlayerProtocol:
            return FallbackPlayerProtocol(
                _StaggeredPrimary(),
                DeterministicScanProtocol(0),
                budget_rounds=10,
            )

        sets = [frozenset({5}), frozenset({5})]
        scalar_solved, scalar_rounds = _scalar_results(
            make_protocol(), sets, nocd_channel, NullAdvice(), seed=0
        )
        assert scalar_rounds.tolist() == [
            exhaust_rounds[0] + 5,  # fallback scan reaches slot 5 in
            exhaust_rounds[1] + 5,  # its own rounds 1..6 after switching
        ]
        batch = run_players_batch(
            make_protocol(), sets, N, np.random.default_rng(0),
            channel=nocd_channel, advice_function=NullAdvice(),
            max_rounds=MAX_ROUNDS,
        )
        assert (batch.solved == scalar_solved).all()
        assert (batch.rounds == scalar_rounds).all()

    def test_budget_switch_hits_all_trials_at_once(self, nocd_channel):
        """With correct advice and a tiny budget, every trial flips to
        the fallback at round budget+1, like the scalar global counter."""
        protocol = FallbackPlayerProtocol(
            DeterministicScanProtocol(2),
            DeterministicScanProtocol(0),
            budget_rounds=1,
        )
        sets = [frozenset({200, 201}), frozenset({100, 110})]
        scalar_solved, scalar_rounds = _scalar_results(
            protocol, sets, nocd_channel, MinIdPrefixAdvice(2), seed=0
        )
        batch = run_players_batch(
            protocol, sets, N, np.random.default_rng(0),
            channel=nocd_channel, advice_function=MinIdPrefixAdvice(2),
            max_rounds=MAX_ROUNDS,
        )
        assert (batch.solved == scalar_solved).all()
        assert (batch.rounds == scalar_rounds).all()


class TestStackedPlayerEngine:
    """run_players_stacked: points stacked into one randomness-free run."""

    def test_stacked_slices_match_solo_batches_exactly(self, cd_channel):
        """Two points' trials concatenated into one stacked run reproduce
        each point's solo batch bit for bit - including the wider id
        padding the stack imposes on the smaller point."""
        protocol = DeterministicTreeDescentProtocol(3)
        advice_fn = MinIdPrefixAdvice(3)
        point_sets = [
            _participant_batches(RandomAdversary(), k=3, trials=40),
            _participant_batches(ClusteredAdversary(), k=7, trials=40),
        ]
        point_advice = [
            [advice_fn.checked_advise(s, N) for s in sets]
            for sets in point_sets
        ]
        stacked = run_players_stacked(
            protocol,
            point_sets[0] + point_sets[1],
            N,
            point_advice[0] + point_advice[1],
            channel=cd_channel,
            max_rounds=MAX_ROUNDS,
        )
        for index, sets in enumerate(point_sets):
            solo = run_players_batch(
                protocol, sets, N, np.random.default_rng(0),
                channel=cd_channel, advice_function=advice_fn,
                max_rounds=MAX_ROUNDS,
            )
            segment = stacked.sliced(index * 40, (index + 1) * 40)
            assert (segment.solved == solo.solved).all(), index
            assert (segment.rounds == solo.rounds).all(), index
            assert (segment.ks == solo.ks).all(), index

    def test_rejects_non_fusable_protocols(self, cd_channel):
        assert route(BinaryExponentialBackoff()).fused is None
        with pytest.raises(ValueError, match="randomness-free"):
            run_players_stacked(
                BinaryExponentialBackoff(), [frozenset({1})], N, [""],
                channel=cd_channel, max_rounds=5,
            )

    def test_rejects_misaligned_advice(self, cd_channel):
        with pytest.raises(ValueError, match="advice string per trial"):
            run_players_stacked(
                DeterministicTreeDescentProtocol(0),
                [frozenset({1, 2}), frozenset({3, 4})],
                N,
                [""],
                channel=cd_channel,
                max_rounds=5,
            )

    @staticmethod
    def _checked_case(kind: str):
        """A b=2 fusable protocol and its channel, at n = 4096."""
        if kind == "scan":
            return DeterministicScanProtocol(2), Channel(False)
        return DeterministicTreeDescentProtocol(2), Channel(True)

    @pytest.mark.parametrize(
        "participants,message",
        [
            ({-1, 3072}, "player id -1 outside 0..4095"),
            ({3072, 5000}, "player id 5000 outside 0..4095"),
        ],
        ids=["padding-sentinel", "above-n"],
    )
    @pytest.mark.parametrize("kind", ["scan", "descent"])
    def test_rejects_ids_outside_the_board(self, kind, participants, message):
        """-1 is the packing's padding sentinel and an id >= n never
        transmits: both are refused up front, with the message the
        checked advice path of run_players gives."""
        protocol, channel = self._checked_case(kind)
        with pytest.raises(AdviceError, match=re.escape(message)):
            run_players(
                protocol, frozenset(participants), 2**12,
                np.random.default_rng(0), channel=channel,
                advice_function=MinIdPrefixAdvice(2),
            )
        with pytest.raises(AdviceError, match=re.escape(message)):
            run_players_stacked(
                protocol, [frozenset({3072, 3073}), frozenset(participants)],
                2**12, ["11", "11"], channel=channel, max_rounds=5,
            )

    @pytest.mark.parametrize("advice", ["110", "1", "", "1x"])
    @pytest.mark.parametrize("kind", ["scan", "descent"])
    def test_rejects_advice_off_the_budget(self, kind, advice):
        """Advice that is not b binary digits raises what run_players
        raises for the same string, instead of running unsolved."""
        protocol, channel = self._checked_case(kind)
        with pytest.raises(AdviceError) as scalar:
            run_players(
                protocol, frozenset({3072, 3073}), 2**12,
                np.random.default_rng(0), channel=channel,
                advice_function=_FixedAdvice(2, advice),
            )
        with pytest.raises(AdviceError, match=re.escape(str(scalar.value))):
            run_players_stacked(
                protocol, [frozenset({3072, 3073})], 2**12, [advice],
                channel=channel, max_rounds=5,
            )

    @pytest.mark.parametrize("value", [-1, 4, 2**40])
    @pytest.mark.parametrize("kind", ["scan", "descent"])
    def test_rejects_int_advice_off_the_budget(self, kind, value):
        """Int advice must be a value some b-bit string reads."""
        protocol, channel = self._checked_case(kind)
        with pytest.raises(
            AdviceError, match=re.escape(f"advice {value} outside 0..3")
        ):
            run_players_stacked(
                protocol, [frozenset({3072, 3073})] * 2, 2**12,
                np.array([3, value]), channel=channel, max_rounds=5,
            )

    @pytest.mark.parametrize(
        "advice,type_name",
        [
            (np.array([0.0, 1.0]), "float64"),
            (np.array([True, False]), "bool"),
            ([1, 2], "int"),
        ],
        ids=["float-array", "bool-array", "int-list"],
    )
    def test_rejects_advice_neither_ints_nor_strings(self, advice, type_name):
        """Only an integer array or strings are advice: anything else is
        an AdviceError naming its type, not a stray TypeError."""
        with pytest.raises(AdviceError, match=f"strings, got {type_name}$"):
            run_players_stacked(
                DeterministicScanProtocol(2), [frozenset({1, 2})] * 2, 16,
                advice, channel=Channel(False), max_rounds=5,
            )

    @pytest.mark.parametrize("kind", ["scan", "descent"])
    def test_int_advice_runs_as_its_strings(self, kind):
        protocol, channel = self._checked_case(kind)
        sets = [frozenset({3072, 3073}), frozenset({1, 2050}), frozenset({9})]
        strings = run_players_stacked(
            protocol, sets, 2**12, ["11", "00", "10"], channel=channel,
            max_rounds=40,
        )
        advice = np.array([3, 0, 2], dtype=np.int64)
        ints = run_players_stacked(
            protocol, sets, 2**12, advice, channel=channel, max_rounds=40,
        )
        assert strings.solved.tolist() == ints.solved.tolist()
        assert strings.rounds.tolist() == ints.rounds.tolist()
        assert advice.tolist() == [3, 0, 2]  # the caller's array is kept

    @pytest.mark.parametrize("kind", ["scan", "descent"])
    def test_sessions_refuse_advice_strings(self, kind):
        """Sessions take int64 advice; a plain cast would read "10" as ten."""
        protocol, _ = self._checked_case(kind)
        ids = pack_participants([frozenset({3072, 3073})])
        with pytest.raises(TypeError, match="safe"):
            protocol.batch_sessions(ids, 2**12, ("10",))


class TestPackParticipants:
    """Sets become sorted rows padded with -1, with the loop's messages."""

    def test_rows_are_sorted_sets_padded_with_minus_one(self):
        rng = np.random.default_rng(3)
        sets = [
            frozenset(int(i) for i in rng.choice(5000, size=size, replace=False))
            for size in rng.integers(1, 9, size=40)
        ]
        ids = pack_participants(sets)
        assert ids.dtype == np.int64
        assert ids.shape == (40, max(map(len, sets)))
        for row, participants in zip(ids, sets):
            width = len(participants)
            assert row[:width].tolist() == sorted(participants)
            assert (row[width:] == -1).all()

    def test_an_id_equal_to_int64_max_is_kept(self):
        top = np.iinfo(np.int64).max
        ids = pack_participants([frozenset({top, 4}), frozenset({1})])
        assert ids.tolist() == [[4, top], [1, -1]]

    def test_empty_batch_and_empty_set_are_refused(self):
        with pytest.raises(ValueError, match="participant batch must be non-empty"):
            pack_participants([])
        with pytest.raises(ValueError, match="participant set must be non-empty"):
            pack_participants([frozenset({1}), frozenset()])


class _CountingRng:
    """Duck-typed generator recording how many uniforms were requested."""

    def __init__(self) -> None:
        self.requested = 0
        self._rng = np.random.default_rng(0)

    def random(self, shape):
        self.requested += int(np.prod(shape))
        return self._rng.random(shape)


class TestSolvedRowFreezing:
    """Retired trials must stop consuming randomness immediately."""

    @pytest.mark.parametrize(
        "make_protocol",
        [
            lambda: BinaryExponentialBackoff(),
            lambda: UniformAsPlayerProtocol(WillardProtocol(N)),
        ],
        ids=["backoff", "uap-willard"],
    )
    def test_decide_draws_shrink_with_live_set(self, make_protocol):
        protocol = make_protocol()
        ids = pack_participants(
            [frozenset({1, 2, 3}), frozenset({4, 5, 6}), frozenset({7, 8, 9})]
        )
        counter = _CountingRng()
        sessions = protocol.batch_sessions(ids, N, ("", "", ""), rng=counter)
        sessions.decide(np.arange(3))
        after_full_round = counter.requested
        assert after_full_round == 9  # 3 live trials x 3 player slots
        # Trial 1 retires: the next round may only draw for trials 0 and 2.
        sessions.decide(np.asarray([0, 2]))
        assert counter.requested - after_full_round == 6

    def test_first_round_winner_consumes_one_round_of_randomness(
        self, cd_channel
    ):
        """A trial that succeeds in round 1 is never drawn for again: the
        total uniforms consumed equal the per-round live counts."""
        protocol = BinaryExponentialBackoff(initial_window=1.0)
        # k=1 with w0=1: every trial transmits alone in round 1 and wins.
        sets = [frozenset({7}), frozenset({9})]
        counter = _CountingRng()
        batch = run_players_batch(
            protocol, sets, N, counter, channel=cd_channel, max_rounds=50,
        )
        assert batch.solved.all()
        assert (batch.rounds == 1).all()
        assert counter.requested == 2  # one draw per trial, round 1 only


class TestEngineContracts:
    def test_fallback_combinator_is_batchable_when_halves_are(self):
        fallback = FallbackPlayerProtocol(
            DeterministicTreeDescentProtocol(2),
            UniformAsPlayerProtocol(WillardProtocol(N)),
            budget_rounds=32,
        )
        assert fallback.supports_batch_sessions()

    def test_rejects_non_batchable_protocols(self, cd_channel):
        randomized_half = UniformAsPlayerProtocol(
            RestartProtocol(lambda: WillardProtocol(N))
        )
        fallback = FallbackPlayerProtocol(
            DeterministicTreeDescentProtocol(2),
            randomized_half,
            budget_rounds=32,
        )
        assert not fallback.supports_batch_sessions()
        with pytest.raises(ValueError, match="no batch player sessions"):
            run_players_batch(
                fallback, [frozenset({1, 2})], N, np.random.default_rng(0),
                channel=cd_channel, advice_function=MinIdPrefixAdvice(2),
                max_rounds=10,
            )

    def test_uniform_as_player_inherits_inner_batchability(self):
        randomized = RestartProtocol(lambda: DecayProtocol(N, cycle=False))
        assert not UniformAsPlayerProtocol(randomized).supports_batch_sessions()
        assert UniformAsPlayerProtocol(DecayProtocol(N)).supports_batch_sessions()

    def test_rejects_bad_inputs(self, cd_channel):
        protocol = BinaryExponentialBackoff()
        with pytest.raises(ValueError, match="non-empty"):
            run_players_batch(
                protocol, [], N, np.random.default_rng(0),
                channel=cd_channel, max_rounds=5,
            )
        with pytest.raises(ValueError, match="non-empty"):
            run_players_batch(
                protocol, [frozenset()], N, np.random.default_rng(0),
                channel=cd_channel, max_rounds=5,
            )
        with pytest.raises(ValueError, match="budget"):
            run_players_batch(
                protocol, [frozenset({1})], N, np.random.default_rng(0),
                channel=cd_channel, max_rounds=0,
            )

    def test_cd_protocol_needs_cd_channel(self, nocd_channel):
        with pytest.raises(ProtocolError):
            run_players_batch(
                BinaryExponentialBackoff(), [frozenset({1})], N,
                np.random.default_rng(0), channel=nocd_channel, max_rounds=5,
            )

    def test_advice_budget_mismatch_rejected(self, cd_channel):
        with pytest.raises(ProtocolError, match="advice bits"):
            run_players_batch(
                DeterministicTreeDescentProtocol(3), [frozenset({1, 2})], N,
                np.random.default_rng(0), channel=cd_channel,
                advice_function=NullAdvice(), max_rounds=5,
            )

    def test_budget_censoring_matches_scalar_convention(self, cd_channel):
        """Trials alive at the budget report rounds == max_rounds."""
        protocol = BinaryExponentialBackoff(initial_window=float(2**18))
        sets = [frozenset(range(8))] * 6
        batch = run_players_batch(
            protocol, sets, N, np.random.default_rng(0), channel=cd_channel,
            max_rounds=7,
        )
        assert not batch.solved.any()
        assert (batch.rounds == 7).all()

    def test_pack_participants_orders_and_pads(self):
        ids = pack_participants([frozenset({9, 3, 17}), frozenset({2})])
        assert ids.tolist() == [[3, 9, 17], [2, -1, -1]]


class TestMonteCarloWiring:
    """estimate_player_rounds routes to the batch player engine."""

    def _estimate(self, protocol, batch, seed=0, advice=None, trials=60):
        adversary = RandomAdversary()
        return estimate_player_rounds(
            protocol,
            lambda rng: adversary.checked_select(N, 5, rng),
            N,
            np.random.default_rng(seed),
            channel=Channel(collision_detection=True),
            advice_function=advice,
            trials=trials,
            max_rounds=MAX_ROUNDS,
            batch=batch,
        )

    def test_auto_uses_batch_and_agrees_with_scalar(self):
        protocol = DeterministicTreeDescentProtocol(2)
        advice = MinIdPrefixAdvice(2)
        auto = self._estimate(protocol, None, seed=3, advice=advice)
        scalar = self._estimate(protocol, False, seed=3, advice=advice)
        # Deterministic protocol + deterministic advice: only the stream
        # *order* differs, and neither engine consumes simulation
        # randomness, so the estimates agree exactly.
        assert auto.rounds == scalar.rounds
        assert auto.success == scalar.success

    def test_batch_true_rejects_non_batchable(self):
        fallback = FallbackPlayerProtocol(
            DeterministicTreeDescentProtocol(0),
            UniformAsPlayerProtocol(RestartProtocol(lambda: WillardProtocol(N))),
            budget_rounds=16,
        )
        with pytest.raises(ValueError, match="batch=True"):
            self._estimate(fallback, True)

    def test_select_player_engine_routing(self):
        assert (
            route(BinaryExponentialBackoff()).engine
            == ENGINE_BATCH_PLAYER
        )
        assert (
            route(BinaryExponentialBackoff(), False).engine
            == ENGINE_SCALAR_PLAYER
        )
        # The fallback combinator batches when both halves do...
        batchable = FallbackPlayerProtocol(
            DeterministicTreeDescentProtocol(0),
            UniformAsPlayerProtocol(WillardProtocol(N)),
            budget_rounds=16,
        )
        assert route(batchable).engine == ENGINE_BATCH_PLAYER
        # ...and stays scalar when a half cannot (randomized sessions).
        fallback = FallbackPlayerProtocol(
            DeterministicTreeDescentProtocol(0),
            UniformAsPlayerProtocol(RestartProtocol(lambda: WillardProtocol(N))),
            budget_rounds=16,
        )
        assert route(fallback).engine == ENGINE_SCALAR_PLAYER
        with pytest.raises(ValueError, match="batch=True"):
            route(fallback, True)


class TestAdversarialPlayers:
    """The fault-injecting channel models on the player engines."""

    JAMMERS = [
        ("jam-oblivious", lambda: ObliviousJammer(budget=2, start=1)),
        ("jam-reactive", lambda: ReactiveJammer(budget=2, quiet_streak=2)),
    ]

    @pytest.mark.parametrize(
        "label,make_model", JAMMERS, ids=[case[0] for case in JAMMERS]
    )
    def test_jammed_deterministic_protocols_agree_exactly(
        self, label, make_model, cd_channel, nocd_channel
    ):
        """Jammers consume no randomness, so the deterministic scan and
        descent stay deterministic under them: batch equals scalar trial
        by trial on both channels."""
        cases = [
            (DeterministicScanProtocol(3), MinIdPrefixAdvice(3),
             nocd_channel.with_model(make_model())),
            (DeterministicTreeDescentProtocol(4), MinIdPrefixAdvice(4),
             cd_channel.with_model(make_model())),
        ]
        for protocol, advice_fn, channel in cases:
            sets = _participant_batches(RandomAdversary(), k=4, trials=48)
            scalar_solved, scalar_rounds = _scalar_results(
                protocol, sets, channel, advice_fn, seed=5
            )
            batch = run_players_batch(
                protocol, sets, N, np.random.default_rng(6), channel=channel,
                advice_function=advice_fn, max_rounds=MAX_ROUNDS,
            )
            assert (batch.solved == scalar_solved).all(), label
            assert (batch.rounds == scalar_rounds).all(), label

    def test_jammed_stacked_matches_solo_batch_exactly(self, cd_channel):
        """Jammers stay fusable: the stacked (randomness-free) player run
        under a jam model reproduces the solo batch bit for bit."""
        channel = cd_channel.with_model(ObliviousJammer(budget=3))
        protocol = DeterministicTreeDescentProtocol(3)
        advice_fn = MinIdPrefixAdvice(3)
        sets = _participant_batches(ClusteredAdversary(), k=5, trials=40)
        advice = [advice_fn.checked_advise(s, N) for s in sets]
        stacked = run_players_stacked(
            protocol, sets, N, advice, channel=channel,
            max_rounds=MAX_ROUNDS,
        )
        solo = run_players_batch(
            protocol, sets, N, np.random.default_rng(0), channel=channel,
            advice_function=advice_fn, max_rounds=MAX_ROUNDS,
        )
        assert (stacked.solved == solo.solved).all()
        assert (stacked.rounds == solo.rounds).all()

    def test_noise_statistics_agree(self, cd_channel):
        """Backoff under noisy feedback: the scalar loop and the batch
        player engine draw the same fault distribution (one uniform per
        live trial per round), so fixed-seed statistics agree."""
        channel = cd_channel.with_model(
            NoisyChannel(collision_to_silence=0.1, success_erasure=0.2)
        )
        protocol = BinaryExponentialBackoff()
        sets = _participant_batches(RandomAdversary(), k=6)
        scalar_solved, scalar_rounds = _scalar_results(
            protocol, sets, channel, None, seed=11
        )
        batch = run_players_batch(
            protocol, sets, N, np.random.default_rng(13), channel=channel,
            max_rounds=MAX_ROUNDS,
        )
        assert batch.solved.mean() == pytest.approx(
            scalar_solved.mean(), abs=0.05
        )
        assert batch.solved_rounds().mean() == pytest.approx(
            scalar_rounds[scalar_solved].mean(), rel=0.15, abs=0.75
        )

    def test_null_model_bit_identical_on_player_batch(self, cd_channel):
        """Zero-fault noise reduces to the faithful channel exactly."""
        protocol = BinaryExponentialBackoff()
        sets = _participant_batches(RandomAdversary(), k=5, trials=80)
        faithful = run_players_batch(
            protocol, sets, N, np.random.default_rng(9), channel=cd_channel,
            max_rounds=MAX_ROUNDS,
        )
        nulled = run_players_batch(
            protocol, sets, N, np.random.default_rng(9),
            channel=cd_channel.with_model(NoisyChannel()),
            max_rounds=MAX_ROUNDS,
        )
        assert (faithful.solved == nulled.solved).all()
        assert (faithful.rounds == nulled.rounds).all()

    def test_stacked_rejects_random_fault_models(self, cd_channel):
        """The randomness-free stacked engine cannot host models that
        draw per-round faults - they must stay on the serial path."""
        with pytest.raises(ValueError, match="serial executor"):
            run_players_stacked(
                DeterministicTreeDescentProtocol(0),
                [frozenset({1})],
                N,
                [""],
                channel=cd_channel.with_model(
                    NoisyChannel(success_erasure=0.5)
                ),
                max_rounds=5,
            )

    def test_batch_rejects_unbatchable_crash(self, cd_channel):
        """Crash models with a rejoin delay need the scalar player loop
        (the live participant count changes mid-trial)."""
        with pytest.raises(ValueError, match="scalar"):
            run_players_batch(
                BinaryExponentialBackoff(),
                [frozenset({1, 2})],
                N,
                np.random.default_rng(0),
                channel=cd_channel.with_model(
                    CrashModel(probability=0.5, rejoin_after=2)
                ),
                max_rounds=5,
            )

    def test_scalar_crash_without_rejoin_kills_the_execution(self, cd_channel):
        """q=1, never rejoin: every lone success crashes its sender, so
        the execution can never deliver a message."""
        channel = cd_channel.with_model(
            CrashModel(probability=1.0, rejoin_after=None)
        )
        result = run_players(
            BinaryExponentialBackoff(), frozenset({3, 7}), N,
            np.random.default_rng(1), channel=channel, max_rounds=200,
        )
        assert not result.solved
        assert result.rounds == 200

    def test_scalar_crash_with_rejoin_recovers(self, cd_channel):
        """A crashed player rejoins with a fresh session and the
        execution still solves - crashes delay, they do not kill."""
        channel = cd_channel.with_model(
            CrashModel(probability=0.5, rejoin_after=2)
        )
        result = run_players(
            BinaryExponentialBackoff(), frozenset({3, 7}), N,
            np.random.default_rng(2), channel=channel, max_rounds=3000,
        )
        assert result.solved

    def test_crash_rejoin_zero_agrees_with_batch(self, cd_channel):
        """rejoin_after=0 is exactly a success erasure, hence batchable:
        scalar and batch statistics agree under it."""
        channel = cd_channel.with_model(
            CrashModel(probability=0.3, rejoin_after=0)
        )
        protocol = BinaryExponentialBackoff()
        sets = _participant_batches(RandomAdversary(), k=4, trials=200)
        scalar_solved, scalar_rounds = _scalar_results(
            protocol, sets, channel, None, seed=17
        )
        batch = run_players_batch(
            protocol, sets, N, np.random.default_rng(19), channel=channel,
            max_rounds=MAX_ROUNDS,
        )
        assert batch.solved.mean() == pytest.approx(
            scalar_solved.mean(), abs=0.06
        )
        assert batch.solved_rounds().mean() == pytest.approx(
            scalar_rounds[scalar_solved].mean(), rel=0.15, abs=0.75
        )


class TestWideRows:
    """Rows of 255, 256 and 257 transmitters are counted exactly: a count
    that wrapped at 8 bits would read 256 transmitters as silence and
    257 as a success."""

    @pytest.mark.parametrize("k", [255, 256, 257])
    def test_descent_over_wide_rows_matches_scalar(self, cd_channel, k):
        """b=0 descent at n=1024 on ids 0..k-1: every probe of the first
        rounds has k transmitters, and the scalar engine solves in round
        10."""
        protocol = DeterministicTreeDescentProtocol(0)
        participants = frozenset(range(k))
        scalar = run_players(
            protocol, participants, 2**10, np.random.default_rng(0),
            channel=cd_channel,
        )
        assert scalar.solved and scalar.rounds == 10
        batch = run_players_batch(
            protocol, [participants], 2**10, np.random.default_rng(0),
            channel=cd_channel,
        )
        stacked = run_players_stacked(
            protocol, [participants], 2**10, [""], channel=cd_channel,
        )
        for result in (batch, stacked):
            assert result.solved.tolist() == [True]
            assert result.rounds.tolist() == [scalar.rounds]

    def test_backoff_round_of_257_transmitters_collides(self, cd_channel):
        """With window 1 all 257 players transmit in round 1: a collision,
        so a one-round budget leaves the trial unsolved."""
        batch = run_players_batch(
            BinaryExponentialBackoff(initial_window=1.0),
            [frozenset(range(257))], 2**10, np.random.default_rng(0),
            channel=cd_channel, max_rounds=1,
        )
        assert batch.solved.tolist() == [False]
        assert batch.rounds.tolist() == [1]
