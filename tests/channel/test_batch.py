"""Batch/scalar equivalence for the vectorized execution engine.

The batch engine draws the *same distribution* as the scalar reference
loop (the per-round channel state of a uniform execution is exactly
``Binomial(k, p)``; see ``channel/batch.py``), but consumes the RNG
stream in a different order, so per-trial outcomes differ for one seed.
Equivalence is therefore asserted two ways:

* **exactly**, wherever the outcome is deterministic (probability-0/1
  schedules, exhaustion and budget bookkeeping);
* **statistically**, on solved/rounds statistics of fixed-seed batches -
  both paths run with their own deterministic generator and must agree
  within tolerances sized for the trial counts used (the comparisons are
  deterministic given the seeds, so these never flake).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.montecarlo import estimate_uniform_rounds
from repro.channel import (
    AdaptiveAdversary,
    Channel,
    CrashModel,
    NoisyChannel,
    ObliviousJammer,
    ReactiveJammer,
    is_batchable,
    run_history_stacked,
    run_schedule_stacked,
    run_uniform,
    run_uniform_batch,
)
from repro.core.feedback import Observation
from repro.core.protocol import (
    OBS_COLLISION,
    OBS_SILENCE,
    BatchSchedule,
    ProtocolError,
    ScheduleExhausted,
    UniformProtocol,
    UniformSession,
)
from repro.core.uniform import (
    HistoryPolicy,
    HistoryPolicyProtocol,
    ProbabilitySchedule,
    ScheduleProtocol,
)
from repro.infotheory.distributions import SizeDistribution
from repro.protocols.decay import DecayProtocol
from repro.protocols.restart import RestartProtocol
from repro.protocols.sorted_probing import SortedProbingProtocol
from repro.protocols.willard import WillardProtocol

N = 2**10


class _HalvingPolicy(HistoryPolicy):
    """Tiny CD policy: halve the probability after every collision."""

    name = "halving"

    def probability(self, history: str) -> float:
        collisions = history.count("1")
        return 0.5 ** min(collisions + 1, 30)


class _OneShotProbeSession(UniformSession):
    def __init__(self, probabilities: tuple[float, ...]) -> None:
        self._probabilities = probabilities
        self._position = 0

    def next_probability(self) -> float:
        if self._position >= len(self._probabilities):
            raise ScheduleExhausted("probe schedule spent")
        probability = self._probabilities[self._position]
        self._position += 1
        return probability

    def observe(self, observation: Observation) -> None:
        assert observation in (Observation.SILENCE, Observation.COLLISION)


class _OneShotProbeProtocol(UniformProtocol):
    """Deterministic-outcome CD one-shot: fixed 0/1 probabilities.

    With probabilities in {0, 1} every trial's trajectory is
    deterministic, so the scalar loop and the history engine must agree
    *exactly* - the pin for ScheduleExhausted / give-up bookkeeping.
    Deliberately publishes no batch schedule, keeping it on the history
    engine even though it ignores feedback.
    """

    name = "one-shot-probe"
    requires_collision_detection = True

    def __init__(self, probabilities: tuple[float, ...]) -> None:
        self.probabilities = tuple(probabilities)

    def session(self) -> _OneShotProbeSession:
        return _OneShotProbeSession(self.probabilities)


def _scalar_stats(protocol_factory, ks, channel, max_rounds, seed):
    rng = np.random.default_rng(seed)
    solved, rounds = [], []
    for k in ks:
        result = run_uniform(
            protocol_factory(), int(k), rng, channel=channel,
            max_rounds=max_rounds,
        )
        solved.append(result.solved)
        rounds.append(result.rounds)
    return np.asarray(solved), np.asarray(rounds)


def _sizes(rng, trials):
    distribution = SizeDistribution.range_uniform_subset(N, [2, 5, 8])
    return np.asarray(distribution.sample_many(rng, trials), dtype=np.int64)


class TestBatchScalarEquivalence:
    """Fixed-seed statistical agreement across the protocol families."""

    @pytest.mark.parametrize(
        "label,make_protocol,cd",
        [
            ("cycling-schedule", lambda: DecayProtocol(N), False),
            (
                "one-shot-schedule",
                lambda: SortedProbingProtocol(
                    SizeDistribution.range_uniform_subset(N, [2, 5, 8]),
                    one_shot=True,
                ),
                False,
            ),
            (
                "history-policy",
                lambda: HistoryPolicyProtocol(_HalvingPolicy()),
                True,
            ),
            ("phased-search", lambda: WillardProtocol(N), True),
        ],
    )
    def test_statistics_agree(
        self, label, make_protocol, cd, nocd_channel, cd_channel
    ):
        channel = cd_channel if cd else nocd_channel
        trials, max_rounds = 3000, 400
        ks = _sizes(np.random.default_rng(7), trials)
        protocol = make_protocol()
        assert is_batchable(protocol)

        scalar_solved, scalar_rounds = _scalar_stats(
            make_protocol, ks, channel, max_rounds, seed=11
        )
        batch = run_uniform_batch(
            protocol, ks, np.random.default_rng(13), channel=channel,
            max_rounds=max_rounds,
        )

        scalar_rate = scalar_solved.mean()
        batch_rate = batch.solved.mean()
        assert batch_rate == pytest.approx(scalar_rate, abs=0.05), label

        if scalar_solved.any() and batch.num_solved:
            scalar_mean = scalar_rounds[scalar_solved].mean()
            batch_mean = batch.solved_rounds().mean()
            assert batch_mean == pytest.approx(
                scalar_mean, rel=0.1, abs=0.5
            ), label

    def test_unsolved_bookkeeping_matches_scalar_convention(
        self, nocd_channel
    ):
        """Budget-censored trials report rounds == max_rounds, like the
        scalar engine."""
        protocol = ScheduleProtocol(ProbabilitySchedule([1e-12]), cycle=True)
        batch = run_uniform_batch(
            protocol, [5, 9, 17], np.random.default_rng(0),
            channel=nocd_channel, max_rounds=25,
        )
        assert not batch.solved.any()
        assert (batch.rounds == 25).all()


class TestDeterministicExactness:
    """Where outcomes are deterministic, batch and scalar match exactly."""

    def test_certain_success_first_round(self, rng, nocd_channel):
        protocol = ScheduleProtocol(ProbabilitySchedule([1.0]), cycle=True)
        ks = np.ones(40, dtype=np.int64)  # k=1, p=1 -> success in round 1
        batch = run_uniform_batch(
            protocol, ks, rng, channel=nocd_channel, max_rounds=10
        )
        assert batch.solved.all()
        assert (batch.rounds == 1).all()
        scalar = run_uniform(
            protocol, 1, rng, channel=nocd_channel, max_rounds=10
        )
        assert scalar.solved and scalar.rounds == 1

    def test_schedule_exhaustion_rounds(self, rng, nocd_channel):
        """One-shot exhaustion censors at the schedule length, both paths."""
        schedule = ProbabilitySchedule([0.0, 0.0, 0.0])
        protocol = ScheduleProtocol(schedule, cycle=False)
        batch = run_uniform_batch(
            protocol, [4, 6], rng, channel=nocd_channel, max_rounds=50
        )
        assert not batch.solved.any()
        assert (batch.rounds == 3).all()
        scalar = run_uniform(
            protocol, 4, rng, channel=nocd_channel, max_rounds=50
        )
        assert not scalar.solved and scalar.rounds == 3

    def test_budget_shorter_than_schedule(self, rng, nocd_channel):
        protocol = ScheduleProtocol(
            ProbabilitySchedule([0.0] * 10), cycle=False
        )
        batch = run_uniform_batch(
            protocol, [4], rng, channel=nocd_channel, max_rounds=4
        )
        assert batch.rounds[0] == 4

    def test_history_engine_exhaustion(self, rng, cd_channel):
        """One-shot phased search exhausts cleanly on the history engine
        with the scalar rounds-played convention."""
        protocol = WillardProtocol(N, restart=False, repetitions=1)
        ks = np.full(64, 700, dtype=np.int64)  # large k: collisions abound
        batch = run_uniform_batch(
            protocol, ks, rng, channel=cd_channel, max_rounds=500
        )
        per_pass = protocol.worst_case_rounds_per_pass()
        unsolved = ~batch.solved
        assert (batch.rounds[unsolved] <= per_pass).all()
        assert (batch.rounds[batch.solved] >= 1).all()


class TestStackedScheduleEngine:
    """run_schedule_stacked: per-point bit-identity with solo batches."""

    def _protocols(self):
        return [
            DecayProtocol(N),
            SortedProbingProtocol(
                SizeDistribution.range_uniform_subset(N, [2, 5, 8]),
                one_shot=True,
            ),
            DecayProtocol(N, cycle=False),
        ]

    def test_stacked_points_match_solo_runs_exactly(self, nocd_channel):
        """Each point of a stacked run consumes its own generator exactly
        as a solo run would, so results agree bit for bit - including
        across mixed cycling/one-shot horizons."""
        protocols = self._protocols()
        ks_list = [
            _sizes(np.random.default_rng(40 + i), 150) for i in range(3)
        ]
        stacked = run_schedule_stacked(
            [p.batch_schedule() for p in protocols],
            ks_list,
            [np.random.default_rng(70 + i) for i in range(3)],
            max_rounds=300,
        )
        for i, (protocol, ks) in enumerate(zip(protocols, ks_list)):
            solo = run_uniform_batch(
                protocol, ks, np.random.default_rng(70 + i),
                channel=nocd_channel, max_rounds=300,
            )
            assert (stacked[i].solved == solo.solved).all(), i
            assert (stacked[i].rounds == solo.rounds).all(), i
            assert (stacked[i].ks == solo.ks).all(), i

    def test_point_stops_consuming_randomness_when_done(self):
        """A point whose trials all retired must never be drawn for again
        (the stacked counterpart of the solo engine's early break).
        Draws come in 16-round blocks per live trial, so a point solved
        in round 1 consumes exactly one block row per trial and a point
        alive to the budget consumes one uniform per trial-round."""

        class _CountingRng:
            def __init__(self) -> None:
                self.requested = 0
                self._rng = np.random.default_rng(0)

            def random(self, size=None, out=None):
                shape = out.shape if out is not None else size
                self.requested += int(np.prod(shape))
                return self._rng.random(size, out=out)

        instant = BatchSchedule((1.0,), True)  # k=1, p=1: solved round 1
        never = BatchSchedule((1e-9,), True)
        counters = [_CountingRng(), _CountingRng()]
        results = run_schedule_stacked(
            [instant, never],
            [np.ones(5, dtype=np.int64), np.full(3, 2, dtype=np.int64)],
            counters,
            max_rounds=50,
        )
        assert results[0].solved.all() and (results[0].rounds == 1).all()
        assert counters[0].requested == 5 * 16  # one block row per trial
        assert counters[1].requested == 3 * 50  # alive to the budget

    def test_stacked_validates_inputs(self):
        schedule = BatchSchedule((0.5,), True)
        with pytest.raises(ValueError, match="per point"):
            run_schedule_stacked(
                [schedule], [], [np.random.default_rng(0)], max_rounds=5
            )
        with pytest.raises(ValueError, match="at least one point"):
            run_schedule_stacked([], [], [], max_rounds=5)
        with pytest.raises(ValueError, match="budget"):
            run_schedule_stacked(
                [schedule], [np.ones(1, dtype=np.int64)],
                [np.random.default_rng(0)], max_rounds=0,
            )


class TestStackedHistoryEngine:
    """run_history_stacked: per-point bit-identity with solo batches."""

    def _points(self):
        protocols = [
            WillardProtocol(N),
            WillardProtocol(N, restart=False, repetitions=1),
            HistoryPolicyProtocol(_HalvingPolicy()),
            WillardProtocol(N),  # same signature as point 0: shared trie
        ]
        ks_list = [
            _sizes(np.random.default_rng(40 + i), 120)
            for i in range(len(protocols))
        ]
        return protocols, ks_list

    def test_stacked_points_match_solo_runs_exactly(self, cd_channel):
        """Each point of a stacked run consumes its own generator exactly
        as a solo run would, so results agree bit for bit - including
        one-shot give-ups mid-stack and trie sharing between the two
        identical Willard points."""
        protocols, ks_list = self._points()
        stacked = run_history_stacked(
            protocols,
            ks_list,
            [np.random.default_rng(70 + i) for i in range(len(protocols))],
            channel=cd_channel,
            max_rounds=300,
        )
        for i, (protocol, ks) in enumerate(zip(protocols, ks_list)):
            solo = run_uniform_batch(
                protocol, ks, np.random.default_rng(70 + i),
                channel=cd_channel, max_rounds=300,
            )
            assert (stacked[i].solved == solo.solved).all(), i
            assert (stacked[i].rounds == solo.rounds).all(), i
            assert (stacked[i].ks == solo.ks).all(), i

    def test_results_independent_of_trie_warmth(self, cd_channel):
        """The shared history trie is a pure memo: a cold arena and a
        warm one produce bit-identical results."""
        import repro.channel.batch as batch_module

        protocol = WillardProtocol(N)
        ks = _sizes(np.random.default_rng(3), 200)

        def run():
            return run_uniform_batch(
                protocol, ks, np.random.default_rng(9),
                channel=cd_channel, max_rounds=200,
            )

        batch_module._reset_shared_arena()
        cold = run()
        warm = run()
        assert (cold.solved == warm.solved).all()
        assert (cold.rounds == warm.rounds).all()

    def test_fresh_nodes_memoize_their_response_on_creation(self):
        """A node's probability, or its exhaustion, is set when the node
        is created, before any round reads it."""
        import repro.channel.batch as batch_module

        arena = batch_module._HistoryArena()
        root = arena.root_for(HistoryPolicyProtocol(_HalvingPolicy()), "halving")
        collided, silent = arena.descend(
            np.array([root, root]), np.array([OBS_COLLISION, OBS_SILENCE])
        )
        assert arena.probability[[root, collided, silent]].tolist() == [0.5, 0.25, 0.5]
        assert not arena.exhausted[[root, collided, silent]].any()
        assert not arena.any_exhausted

        probe = arena.root_for(_OneShotProbeProtocol((0.25,)), "probe")
        assert arena.probability[probe] == 0.25 and not arena.exhausted[probe]
        codes = np.array([OBS_COLLISION, OBS_SILENCE, OBS_COLLISION])
        children = arena.descend(np.full(3, probe), codes)
        assert children[0] == children[2] != children[1]
        assert arena.exhausted[children].all() and arena.any_exhausted
        assert arena.count == 6  # one node per distinct history

    def test_point_stops_consuming_randomness_when_done(self, cd_channel):
        """History points pre-draw uniforms in 16-round blocks and stop
        drawing once all their trials retired - the same stream contract
        as the schedule engine."""

        class _CountingRng:
            def __init__(self) -> None:
                self.requested = 0
                self._rng = np.random.default_rng(0)

            def random(self, size=None, out=None):
                shape = out.shape if out is not None else size
                self.requested += int(np.prod(shape))
                return self._rng.random(size, out=out)

        class _InstantPolicy(HistoryPolicy):
            name = "instant"

            def probability(self, history: str) -> float:
                return 1.0

        class _MutePolicy(HistoryPolicy):
            name = "mute"

            def probability(self, history: str) -> float:
                return 0.0  # certain silence: alive to the budget

        instant = HistoryPolicyProtocol(_InstantPolicy())  # k=1: round 1
        never = HistoryPolicyProtocol(_MutePolicy())
        counters = [_CountingRng(), _CountingRng()]
        results = run_history_stacked(
            [instant, never],
            [np.ones(5, dtype=np.int64), np.full(3, 500, dtype=np.int64)],
            counters,
            channel=cd_channel,
            max_rounds=50,
        )
        assert results[0].solved.all() and (results[0].rounds == 1).all()
        assert counters[0].requested == 5 * 16  # one block row per trial
        # Certain silence survives to the budget: one uniform per
        # trial-round, block boundaries clipped to the budget.
        assert not results[1].solved.any()
        assert counters[1].requested == 3 * 50

    def test_exhausted_trials_do_not_draw(self, cd_channel):
        """A trial retiring via ScheduleExhausted consumes no uniform in
        its give-up round, exactly like the scalar loop (the exception
        fires before the round's binomial there)."""

        class _CountingRng:
            def __init__(self) -> None:
                self.requested = 0
                self._rng = np.random.default_rng(0)

            def random(self, size=None, out=None):
                shape = out.shape if out is not None else size
                self.requested += int(np.prod(shape))
                return self._rng.random(size, out=out)

        protocol = _OneShotProbeProtocol((0.0, 0.0))
        counter = _CountingRng()
        result = run_history_stacked(
            [protocol], [np.full(4, 7, dtype=np.int64)], [counter],
            channel=cd_channel, max_rounds=10,
        )[0]
        assert (result.rounds == 2).all()
        # One 10-wide block row per trial at round 1; the round-3 give-up
        # consumed nothing further.
        assert counter.requested == 4 * 10

    def test_stacked_validates_inputs(self, cd_channel, rng):
        protocol = WillardProtocol(N)
        with pytest.raises(ValueError, match="per point"):
            run_history_stacked(
                [protocol], [], [rng], channel=cd_channel, max_rounds=5
            )
        with pytest.raises(ValueError, match="at least one point"):
            run_history_stacked([], [], [], channel=cd_channel, max_rounds=5)
        with pytest.raises(ValueError, match="budget"):
            run_history_stacked(
                [protocol], [np.ones(1, dtype=np.int64)], [rng],
                channel=cd_channel, max_rounds=0,
            )
        randomized = RestartProtocol(lambda: DecayProtocol(N, cycle=False))
        with pytest.raises(ValueError, match="randomized sessions"):
            run_history_stacked(
                [randomized], [np.ones(1, dtype=np.int64)], [rng],
                channel=cd_channel, max_rounds=5,
            )


class TestGiveUpAgreement:
    """Scalar-vs-batch agreement on the CD give-up and rejection paths."""

    def test_exhaustion_bookkeeping_matches_scalar_exactly(self, cd_channel):
        """Deterministic one-shot: both paths record rounds actually
        played (= schedule length), unsolved, for every trial."""
        protocol = _OneShotProbeProtocol((0.0, 0.0, 0.0))
        batch = run_uniform_batch(
            protocol, [2, 5, 40], np.random.default_rng(1),
            channel=cd_channel, max_rounds=50,
        )
        scalar = [
            run_uniform(
                protocol, k, np.random.default_rng(1), channel=cd_channel,
                max_rounds=50,
            )
            for k in (2, 5, 40)
        ]
        assert not batch.solved.any()
        assert (batch.rounds == 3).all()
        assert batch.gave_up().all()
        for result in scalar:
            assert not result.solved and result.rounds == 3

    def test_budget_truncates_before_exhaustion_on_both_paths(
        self, cd_channel
    ):
        protocol = _OneShotProbeProtocol((0.0,) * 10)
        batch = run_uniform_batch(
            protocol, [6], np.random.default_rng(1), channel=cd_channel,
            max_rounds=4,
        )
        scalar = run_uniform(
            protocol, 6, np.random.default_rng(1), channel=cd_channel,
            max_rounds=4,
        )
        assert batch.rounds[0] == scalar.rounds == 4
        assert not batch.gave_up().any()  # budget-censored, not a give-up

    def test_deterministic_success_matches_scalar_exactly(self, cd_channel):
        """p=1, k=1 solves in round 1 on both paths; p=1, k>=2 collides
        forever and gives up at exhaustion on both paths."""
        protocol = _OneShotProbeProtocol((1.0, 1.0))
        batch = run_uniform_batch(
            protocol, [1, 1, 3], np.random.default_rng(0),
            channel=cd_channel, max_rounds=9,
        )
        assert list(batch.solved) == [True, True, False]
        assert list(batch.rounds) == [1, 1, 2]
        solo_one = run_uniform(
            protocol, 1, np.random.default_rng(0), channel=cd_channel,
            max_rounds=9,
        )
        solo_three = run_uniform(
            protocol, 3, np.random.default_rng(0), channel=cd_channel,
            max_rounds=9,
        )
        assert solo_one.solved and solo_one.rounds == 1
        assert not solo_three.solved and solo_three.rounds == 2

    def test_k0_and_empty_rows_rejected_on_both_paths(self, cd_channel, rng):
        """The problem assumes non-empty participant sets: k = 0 rows and
        empty workloads are rejected identically by both engines."""
        protocol = WillardProtocol(N)
        with pytest.raises(ValueError, match=">= 1"):
            run_uniform(protocol, 0, rng, channel=cd_channel, max_rounds=5)
        with pytest.raises(ValueError, match=">= 1"):
            run_uniform_batch(
                protocol, [4, 0, 9], rng, channel=cd_channel, max_rounds=5
            )
        with pytest.raises(ValueError, match="non-empty"):
            run_uniform_batch(
                protocol, [], rng, channel=cd_channel, max_rounds=5
            )
        with pytest.raises(ValueError, match="non-empty"):
            run_history_stacked(
                [protocol], [np.asarray([], dtype=np.int64)], [rng],
                channel=cd_channel, max_rounds=5,
            )


class TestBatchEngineContracts:
    def test_rejects_bad_inputs(self, rng, nocd_channel):
        protocol = DecayProtocol(N)
        with pytest.raises(ValueError, match="non-empty"):
            run_uniform_batch(
                protocol, [], rng, channel=nocd_channel, max_rounds=5
            )
        with pytest.raises(ValueError, match=">= 1"):
            run_uniform_batch(
                protocol, [0, 3], rng, channel=nocd_channel, max_rounds=5
            )
        with pytest.raises(ValueError, match="budget"):
            run_uniform_batch(
                protocol, [3], rng, channel=nocd_channel, max_rounds=0
            )

    @pytest.mark.parametrize(
        "ks,dtype",
        [
            (np.asarray([2.0, 3.0]), "float64"),
            ([2.7, 3.9, 1.5], "float64"),
            (np.asarray([True, True]), "bool"),
        ],
        ids=["float", "fractional", "bool"],
    )
    def test_refuses_non_integer_counts(self, ks, dtype, rng, cd_channel):
        """Non-integer counts used to be truncated (2.7 ran as 2) while
        the scalar engine ran them as given; every entry point refuses."""
        message = f"must be integers, got {dtype}"
        with pytest.raises(ValueError, match=message):
            run_uniform_batch(
                DecayProtocol(N), ks, rng, channel=cd_channel, max_rounds=5
            )
        with pytest.raises(ValueError, match=message):
            run_schedule_stacked(
                [DecayProtocol(N).batch_schedule()] * 2, [[4, 5], ks],
                [rng, rng], channel=cd_channel, max_rounds=5,
            )
        with pytest.raises(ValueError, match=message):
            run_history_stacked(
                [WillardProtocol(N)], [ks], [rng], channel=cd_channel,
                max_rounds=5,
            )

    def test_accepts_any_integer_dtype(self, rng, nocd_channel):
        results = [
            run_uniform_batch(
                DecayProtocol(N), np.asarray([3, 9, 1], dtype=dtype),
                np.random.default_rng(3), channel=nocd_channel,
                max_rounds=40,
            )
            for dtype in (np.int64, np.int32, np.uint8)
        ]
        for result in results:
            assert result.ks.dtype == np.int64
            np.testing.assert_array_equal(result.ks, [3, 9, 1])
            np.testing.assert_array_equal(result.rounds, results[0].rounds)

    def test_cd_protocol_needs_cd_channel(self, rng, nocd_channel):
        with pytest.raises(ProtocolError):
            run_uniform_batch(
                WillardProtocol(N), [5], rng, channel=nocd_channel,
                max_rounds=5,
            )

    def test_randomized_restart_is_not_batchable(self):
        factory_restart = RestartProtocol(
            lambda: DecayProtocol(N, cycle=False)
        )
        assert not factory_restart.deterministic_sessions
        assert factory_restart.batch_schedule() is None
        assert not is_batchable(factory_restart)

    def test_restart_propagates_inner_nondeterminism(self):
        """Wrapping a randomized-session instance keeps it off the batch
        path: determinism is inherited, not reset to the class default."""
        randomized_inner = RestartProtocol(
            lambda: DecayProtocol(N, cycle=False)
        )
        outer = RestartProtocol(randomized_inner)
        assert not outer.deterministic_sessions
        assert outer.batch_schedule() is None
        assert not is_batchable(outer)

    def test_instance_restart_is_a_cycling_schedule(self, rng, nocd_channel):
        one_shot = DecayProtocol(N, cycle=False)
        restart = RestartProtocol(one_shot)
        spec = restart.batch_schedule()
        assert spec is not None and spec.cycle
        assert spec.probabilities == one_shot.schedule.probabilities
        batch = run_uniform_batch(
            restart, [10] * 200, rng, channel=nocd_channel, max_rounds=300
        )
        assert batch.solved.all()

    def test_history_signatures_identify_equal_behaviour(self):
        """Equal constructor args -> equal signature (shared trie); any
        parameter difference splits it; randomized wrappers sign nothing."""
        assert (
            WillardProtocol(N).history_signature()
            == WillardProtocol(N).history_signature()
            is not None
        )
        assert (
            WillardProtocol(N).history_signature()
            != WillardProtocol(N, repetitions=5).history_signature()
        )
        one_shot = WillardProtocol(N, restart=False)
        assert RestartProtocol(one_shot).history_signature() == (
            "restart",
            one_shot.history_signature(),
        )
        assert (
            RestartProtocol(
                lambda: WillardProtocol(N, restart=False)
            ).history_signature()
            is None
        )
        assert HistoryPolicyProtocol(_HalvingPolicy()).history_signature() is None

    def test_batch_schedule_validation(self):
        with pytest.raises(ValueError, match="at least one round"):
            BatchSchedule((), True)
        assert BatchSchedule((0.5,), True).horizon(9) == 9
        assert BatchSchedule((0.5, 0.5), False).horizon(9) == 2

    def test_result_conversions(self, rng, nocd_channel):
        batch = run_uniform_batch(
            DecayProtocol(N), [8, 8, 8], rng, channel=nocd_channel,
            max_rounds=200,
        )
        results = batch.to_execution_results()
        assert len(results) == 3
        assert [r.solved for r in results] == list(batch.solved)
        assert [r.rounds for r in results] == list(batch.rounds)
        summary = batch.rounds_summary()
        assert summary.count == batch.num_solved
        proportion = batch.success_estimate()
        assert proportion.trials == 3


class TestMonteCarloWiring:
    """estimate_uniform_rounds routes to the batch engine correctly."""

    def test_batch_refuses_float_size_samples(self, rng, nocd_channel):
        class FloatSampler:
            def sample_many(self, rng, trials):
                return np.full(trials, 3.0)

        for source in (lambda rng: 2.5, FloatSampler()):
            with pytest.raises(ValueError, match="integers, got float64"):
                estimate_uniform_rounds(
                    DecayProtocol(N), source, rng, channel=nocd_channel,
                    trials=8, max_rounds=5, batch=True,
                )

    def test_auto_uses_batch_and_agrees_with_scalar(self, nocd_channel):
        protocol = DecayProtocol(N)
        kwargs = dict(
            channel=nocd_channel, trials=2500, max_rounds=400
        )
        auto = estimate_uniform_rounds(
            protocol, 30, np.random.default_rng(5), **kwargs
        )
        scalar = estimate_uniform_rounds(
            protocol, 30, np.random.default_rng(5), batch=False, **kwargs
        )
        assert auto.success.rate == pytest.approx(scalar.success.rate, abs=0.02)
        assert auto.rounds.mean == pytest.approx(scalar.rounds.mean, rel=0.08)

    def test_factory_protocols_fall_back_to_scalar(self, rng, nocd_channel):
        estimate = estimate_uniform_rounds(
            lambda: DecayProtocol(N), 16, rng, channel=nocd_channel,
            trials=100, max_rounds=300,
        )
        assert estimate.success.rate == 1.0

    def test_batch_true_rejects_factories(self, rng, nocd_channel):
        with pytest.raises(ValueError, match="batchable"):
            estimate_uniform_rounds(
                lambda: DecayProtocol(N), 16, rng, channel=nocd_channel,
                trials=10, max_rounds=10, batch=True,
            )

    def test_callable_size_source_batches(self, rng, nocd_channel):
        estimate = estimate_uniform_rounds(
            DecayProtocol(N), lambda generator: 12, rng,
            channel=nocd_channel, trials=100, max_rounds=300, batch=True,
        )
        assert estimate.success.rate == 1.0


class TestAdversarialAgreement:
    """Scalar-vs-batch agreement under the fault-injecting channel models.

    Jammers are deterministic, so deterministic protocols must agree
    *exactly* across every engine; randomized models (noise, batchable
    crash) agree statistically and bit-identically between solo and
    stacked runs of the same generator.
    """

    def test_oblivious_jam_floor_exact_on_every_engine(self, rng):
        """k=1 with a certain-transmit schedule solves the round after the
        jam budget runs out - on the scalar loop, the solo batch and the
        stacked engine alike."""
        budget = 3
        channel = Channel(False, ObliviousJammer(budget=budget))
        protocol = ScheduleProtocol(ProbabilitySchedule([1.0]), cycle=True)

        scalar = run_uniform(
            protocol, 1, np.random.default_rng(0), channel=channel,
            max_rounds=20,
        )
        assert scalar.solved and scalar.rounds == budget + 1

        batch = run_uniform_batch(
            protocol, np.ones(8, dtype=np.int64), np.random.default_rng(0),
            channel=channel, max_rounds=20,
        )
        assert batch.solved.all() and (batch.rounds == budget + 1).all()

        stacked = run_schedule_stacked(
            [BatchSchedule((1.0,), True)],
            [np.ones(8, dtype=np.int64)],
            [np.random.default_rng(0)],
            channel=channel,
            max_rounds=20,
        )[0]
        assert stacked.solved.all() and (stacked.rounds == budget + 1).all()

    def test_reactive_jam_exact_on_history_engine(self, cd_channel, rng):
        """Deterministic 0/1 probe under the reactive jammer: round 1 is
        silent (streak builds), round 2's success is jammed, round 3's
        success is delivered - exactly, scalar and batch."""
        model = ReactiveJammer(budget=1, quiet_streak=1)
        channel = cd_channel.with_model(model)
        protocol = _OneShotProbeProtocol((0.0, 1.0, 1.0, 1.0))

        scalar = run_uniform(
            protocol, 1, np.random.default_rng(0), channel=channel,
            max_rounds=10,
        )
        assert scalar.solved and scalar.rounds == 3

        batch = run_uniform_batch(
            protocol, np.ones(6, dtype=np.int64), np.random.default_rng(0),
            channel=channel, max_rounds=10,
        )
        assert batch.solved.all() and (batch.rounds == 3).all()

    def test_certain_crash_erasure_exact_on_both_paths(self, cd_channel):
        """rejoin_after=0 with probability 1 erases every success: the
        deterministic probe exhausts unsolved, identically on the scalar
        loop and the (batchable) crash batch path."""
        channel = cd_channel.with_model(
            CrashModel(probability=1.0, rejoin_after=0)
        )
        protocol = _OneShotProbeProtocol((1.0, 1.0))

        scalar = run_uniform(
            protocol, 1, np.random.default_rng(0), channel=channel,
            max_rounds=10,
        )
        assert not scalar.solved and scalar.rounds == 2

        batch = run_uniform_batch(
            protocol, np.ones(5, dtype=np.int64), np.random.default_rng(0),
            channel=channel, max_rounds=10,
        )
        assert not batch.solved.any()
        assert (batch.rounds == 2).all()

    @pytest.mark.parametrize(
        "null_model",
        [ObliviousJammer(budget=0), NoisyChannel(), CrashModel(0.0)],
    )
    def test_null_models_bit_identical_to_faithful(
        self, null_model, nocd_channel, cd_channel
    ):
        """Zero-fault parameters reduce to the faithful channel exactly
        (same generator, same outcomes bit for bit) on both batch
        engines."""
        ks = _sizes(np.random.default_rng(3), 200)

        schedule_protocol = DecayProtocol(N)
        faithful = run_uniform_batch(
            schedule_protocol, ks, np.random.default_rng(5),
            channel=nocd_channel, max_rounds=200,
        )
        nulled = run_uniform_batch(
            schedule_protocol, ks, np.random.default_rng(5),
            channel=nocd_channel.with_model(null_model), max_rounds=200,
        )
        assert (faithful.solved == nulled.solved).all()
        assert (faithful.rounds == nulled.rounds).all()

        history_protocol = WillardProtocol(N)
        faithful = run_uniform_batch(
            history_protocol, ks, np.random.default_rng(5),
            channel=cd_channel, max_rounds=200,
        )
        nulled = run_uniform_batch(
            history_protocol, ks, np.random.default_rng(5),
            channel=cd_channel.with_model(null_model), max_rounds=200,
        )
        assert (faithful.solved == nulled.solved).all()
        assert (faithful.rounds == nulled.rounds).all()

    def test_solo_and_stacked_agree_bit_for_bit_under_noise(
        self, nocd_channel, cd_channel
    ):
        """Randomized fault models keep the stacked-stream contract: each
        point consumes its own generator exactly as a solo run would, so
        solo and stacked outcomes match bit for bit."""
        model = NoisyChannel(
            silence_to_collision=0.1, collision_to_silence=0.1,
            success_erasure=0.2,
        )
        ks = _sizes(np.random.default_rng(11), 150)

        solo = run_uniform_batch(
            DecayProtocol(N), ks, np.random.default_rng(21),
            channel=nocd_channel.with_model(model), max_rounds=300,
        )
        stacked = run_schedule_stacked(
            [DecayProtocol(N).batch_schedule()],
            [ks],
            [np.random.default_rng(21)],
            channel=nocd_channel.with_model(model),
            max_rounds=300,
        )[0]
        assert (solo.solved == stacked.solved).all()
        assert (solo.rounds == stacked.rounds).all()

        solo = run_uniform_batch(
            WillardProtocol(N), ks, np.random.default_rng(23),
            channel=cd_channel.with_model(model), max_rounds=300,
        )
        stacked = run_history_stacked(
            [WillardProtocol(N)],
            [ks],
            [np.random.default_rng(23)],
            channel=cd_channel.with_model(model),
            max_rounds=300,
        )[0]
        assert (solo.solved == stacked.solved).all()
        assert (solo.rounds == stacked.rounds).all()

    @pytest.mark.parametrize(
        "make_protocol,cd",
        [
            (lambda: DecayProtocol(N), False),
            (lambda: WillardProtocol(N), True),
        ],
    )
    def test_statistics_agree_under_noise(
        self, make_protocol, cd, nocd_channel, cd_channel
    ):
        """Fixed-seed statistical agreement between the scalar reference
        loop and the batch engine with a randomized fault model in the
        middle - the agreement pin for the noise perturbation path."""
        model = NoisyChannel(
            silence_to_collision=0.1, collision_to_silence=0.1,
            success_erasure=0.15,
        )
        channel = (cd_channel if cd else nocd_channel).with_model(model)
        trials, max_rounds = 1500, 400
        ks = _sizes(np.random.default_rng(7), trials)

        scalar_solved, scalar_rounds = _scalar_stats(
            make_protocol, ks, channel, max_rounds, seed=11
        )
        batch = run_uniform_batch(
            make_protocol(), ks, np.random.default_rng(13),
            channel=channel, max_rounds=max_rounds,
        )
        assert batch.solved.mean() == pytest.approx(
            scalar_solved.mean(), abs=0.05
        )
        assert batch.solved_rounds().mean() == pytest.approx(
            scalar_rounds[scalar_solved].mean(), rel=0.1, abs=0.5
        )

    def test_fault_draws_double_block_consumption(self, nocd_channel):
        """needs_fault_draws models pre-draw one fault uniform alongside
        every faithful block uniform - and retired points stop consuming
        both streams."""

        class _CountingRng:
            def __init__(self) -> None:
                self.requested = 0
                self._rng = np.random.default_rng(0)

            def random(self, size=None, out=None):
                shape = out.shape if out is not None else size
                self.requested += int(np.prod(shape))
                return self._rng.random(size, out=out)

        channel = nocd_channel.with_model(NoisyChannel(success_erasure=1e-12))
        instant = BatchSchedule((1.0,), True)  # k=1, p=1: solved round 1
        never = BatchSchedule((1e-9,), True)
        counters = [_CountingRng(), _CountingRng()]
        results = run_schedule_stacked(
            [instant, never],
            [np.ones(5, dtype=np.int64), np.full(3, 2, dtype=np.int64)],
            counters,
            channel=channel,
            max_rounds=50,
        )
        assert results[0].solved.all() and (results[0].rounds == 1).all()
        # One faithful block row + one fault block row per trial.
        assert counters[0].requested == 2 * 5 * 16
        # Alive to the budget: faithful + fault uniform per trial-round.
        assert counters[1].requested == 2 * 3 * 50

    def test_jammers_consume_no_extra_randomness(self, nocd_channel):
        """Deterministic jammers leave the draw stream untouched: the
        same block accounting as the faithful engine."""

        class _CountingRng:
            def __init__(self) -> None:
                self.requested = 0
                self._rng = np.random.default_rng(0)

            def random(self, size=None, out=None):
                shape = out.shape if out is not None else size
                self.requested += int(np.prod(shape))
                return self._rng.random(size, out=out)

        channel = nocd_channel.with_model(ObliviousJammer(budget=2))
        counter = _CountingRng()
        result = run_schedule_stacked(
            [BatchSchedule((1.0,), True)],
            [np.ones(5, dtype=np.int64)],
            [counter],
            channel=channel,
            max_rounds=50,
        )[0]
        # Jammed in rounds 1-2, solved in round 3: one 16-round block
        # row per trial covers it, with no parallel fault block.
        assert result.solved.all() and (result.rounds == 3).all()
        assert counter.requested == 5 * 16

    def test_rejoin_crash_batches_on_uniform_engines_only(self, rng):
        """Crash models with a non-zero rejoin delay now batch on the
        uniform engines (per-trial active-count bands); the player and
        open substrates, whose populations are not per-trial counters,
        still refuse them."""
        from repro.analysis.montecarlo import route
        from repro.protocols.backoff import BinaryExponentialBackoff

        model = CrashModel(probability=0.5, rejoin_after=2)
        assert model.shrinks_population
        assert model.needs_fault_draws

        assert route(
            DecayProtocol(N), batch=True
        ).engine.startswith("batch")
        with pytest.raises(ValueError, match="scalar"):
            route(
                BinaryExponentialBackoff(), batch=True, model=model
            )
        with pytest.raises(ValueError, match="arrival process"):
            route(DecayProtocol(N), model=model, open_system=True)

    def test_rejoin_crash_deterministic_erasure_exact(self, nocd_channel):
        """probability=1 with a rejoin delay: the lone station's every
        success is erased and it sits out the delay window, forever -
        deterministically, on the scalar loop, the solo batch and the
        stacked engine alike."""
        model = CrashModel(probability=1.0, rejoin_after=3)
        channel = nocd_channel.with_model(model)
        protocol = ScheduleProtocol(ProbabilitySchedule([1.0]), cycle=True)
        max_rounds = 24

        scalar = run_uniform(
            protocol, 1, np.random.default_rng(0), channel=channel,
            max_rounds=max_rounds,
        )
        assert not scalar.solved and scalar.rounds == max_rounds

        batch = run_uniform_batch(
            protocol, np.ones(6, dtype=np.int64), np.random.default_rng(0),
            channel=channel, max_rounds=max_rounds,
        )
        assert not batch.solved.any()
        assert (batch.rounds == max_rounds).all()

        stacked = run_schedule_stacked(
            [BatchSchedule((1.0,), True)],
            [np.ones(6, dtype=np.int64)],
            [np.random.default_rng(0)],
            channel=channel,
            max_rounds=max_rounds,
        )[0]
        assert not stacked.solved.any()
        assert (stacked.rounds == max_rounds).all()

    def test_rejoin_crash_statistics_agree_with_scalar_oracle(
        self, nocd_channel
    ):
        """The scalar loop stays the agreement oracle for the rejoin
        crash: the batch path draws one fault uniform per live trial per
        round (vs the scalar loop's on-success draw), so agreement is
        statistical, like the noise models."""
        model = CrashModel(probability=0.3, rejoin_after=2)
        channel = nocd_channel.with_model(model)
        trials, max_rounds = 1500, 400
        ks = _sizes(np.random.default_rng(7), trials)

        scalar_solved, scalar_rounds = _scalar_stats(
            lambda: DecayProtocol(N), ks, channel, max_rounds, seed=11
        )
        batch = run_uniform_batch(
            DecayProtocol(N), ks, np.random.default_rng(13),
            channel=channel, max_rounds=max_rounds,
        )
        assert batch.solved.mean() == pytest.approx(
            scalar_solved.mean(), abs=0.05
        )
        assert batch.solved_rounds().mean() == pytest.approx(
            scalar_rounds[scalar_solved].mean(), rel=0.1, abs=0.5
        )


class TestAdaptiveAgreement:
    """Engine agreement for the full-information adaptive adversary.

    Every registry strategy is deterministic given the feedback
    trajectory - the adversary consumes no randomness of its own - so
    deterministic protocols must agree *exactly* on the scalar loop, the
    solo batch and the stacked engines, and randomized protocols must be
    bit-identical between solo and stacked runs of one generator.
    """

    @pytest.mark.parametrize(
        "params,expected_rounds",
        [
            # Greedy erases the first `budget` successes of the certain-
            # transmit station, one per round.
            ({"strategy": "greedy"}, 4),
            # Front scheduler jams rounds 1..budget unconditionally.
            ({"strategy": "scheduler", "mode": "front"}, 4),
            # Back scheduler arms on the first faithful success - round 1
            # here - so it plays exactly like greedy on this probe.
            ({"strategy": "scheduler", "mode": "back"}, 4),
            # patience=2 never sees a 2-round quiet streak (every round
            # is a faithful success), so the streak strategy never jams.
            ({"strategy": "streak", "patience": 2}, 1),
        ],
    )
    def test_strategies_exact_on_every_engine(
        self, nocd_channel, params, expected_rounds
    ):
        model = AdaptiveAdversary(budget=3, **params)
        channel = nocd_channel.with_model(model)
        protocol = ScheduleProtocol(ProbabilitySchedule([1.0]), cycle=True)

        scalar = run_uniform(
            protocol, 1, np.random.default_rng(0), channel=channel,
            max_rounds=20,
        )
        assert scalar.solved and scalar.rounds == expected_rounds

        batch = run_uniform_batch(
            protocol, np.ones(7, dtype=np.int64), np.random.default_rng(0),
            channel=channel, max_rounds=20,
        )
        assert batch.solved.all() and (batch.rounds == expected_rounds).all()

        stacked = run_schedule_stacked(
            [BatchSchedule((1.0,), True)],
            [np.ones(7, dtype=np.int64)],
            [np.random.default_rng(0)],
            channel=channel,
            max_rounds=20,
        )[0]
        assert stacked.solved.all()
        assert (stacked.rounds == expected_rounds).all()

    def test_streak_strategy_exact_on_history_engine(self, cd_channel):
        """Deterministic 0/1 probe, patience=2: rounds 1-2 are silent
        (streak reaches 2), round 3's success is jammed, the delivered
        collision resets the streak, round 4's success lands - exactly,
        scalar and batch."""
        model = AdaptiveAdversary(budget=2, strategy="streak", patience=2)
        channel = cd_channel.with_model(model)
        protocol = _OneShotProbeProtocol((0.0, 0.0, 1.0, 1.0))

        scalar = run_uniform(
            protocol, 1, np.random.default_rng(0), channel=channel,
            max_rounds=10,
        )
        assert scalar.solved and scalar.rounds == 4

        batch = run_uniform_batch(
            protocol, np.ones(6, dtype=np.int64), np.random.default_rng(0),
            channel=channel, max_rounds=10,
        )
        assert batch.solved.all() and (batch.rounds == 4).all()

    def test_solo_and_stacked_bit_identical_under_adaptive(
        self, nocd_channel, cd_channel
    ):
        """Per-trial adversary state follows the stacked stream contract:
        solo and stacked runs of one generator match bit for bit on both
        stacked engines."""
        model = AdaptiveAdversary(budget=4, strategy="greedy")
        ks = _sizes(np.random.default_rng(11), 150)

        solo = run_uniform_batch(
            DecayProtocol(N), ks, np.random.default_rng(21),
            channel=nocd_channel.with_model(model), max_rounds=300,
        )
        stacked = run_schedule_stacked(
            [DecayProtocol(N).batch_schedule()],
            [ks],
            [np.random.default_rng(21)],
            channel=nocd_channel.with_model(model),
            max_rounds=300,
        )[0]
        assert (solo.solved == stacked.solved).all()
        assert (solo.rounds == stacked.rounds).all()

        solo = run_uniform_batch(
            WillardProtocol(N), ks, np.random.default_rng(23),
            channel=cd_channel.with_model(model), max_rounds=300,
        )
        stacked = run_history_stacked(
            [WillardProtocol(N)],
            [ks],
            [np.random.default_rng(23)],
            channel=cd_channel.with_model(model),
            max_rounds=300,
        )[0]
        assert (solo.solved == stacked.solved).all()
        assert (solo.rounds == stacked.rounds).all()

    def test_adaptive_statistics_agree_with_scalar(self, nocd_channel):
        """Fixed-seed statistical agreement between the scalar reference
        loop and the batch engine with the adaptive adversary in the
        middle: the strategies are deterministic, so the two paths
        simulate the same perturbed process."""
        model = AdaptiveAdversary(budget=6, strategy="greedy")
        channel = nocd_channel.with_model(model)
        trials, max_rounds = 1500, 400
        ks = _sizes(np.random.default_rng(7), trials)

        scalar_solved, scalar_rounds = _scalar_stats(
            lambda: DecayProtocol(N), ks, channel, max_rounds, seed=11
        )
        batch = run_uniform_batch(
            DecayProtocol(N), ks, np.random.default_rng(13),
            channel=channel, max_rounds=max_rounds,
        )
        assert batch.solved.mean() == pytest.approx(
            scalar_solved.mean(), abs=0.05
        )
        assert batch.solved_rounds().mean() == pytest.approx(
            scalar_rounds[scalar_solved].mean(), rel=0.1, abs=0.5
        )

    def test_adaptive_consumes_no_extra_randomness(self, nocd_channel):
        """The adaptive adversary is a pure function of the feedback
        trajectory: the stacked engine's draw accounting matches the
        faithful engine exactly (no parallel fault block)."""

        class _CountingRng:
            def __init__(self) -> None:
                self.requested = 0
                self._rng = np.random.default_rng(0)

            def random(self, size=None, out=None):
                shape = out.shape if out is not None else size
                self.requested += int(np.prod(shape))
                return self._rng.random(size, out=out)

        channel = nocd_channel.with_model(
            AdaptiveAdversary(budget=2, strategy="greedy")
        )
        counter = _CountingRng()
        result = run_schedule_stacked(
            [BatchSchedule((1.0,), True)],
            [np.ones(5, dtype=np.int64)],
            [counter],
            channel=channel,
            max_rounds=50,
        )[0]
        # Jammed in rounds 1-2, solved in round 3: one 16-round block
        # row per trial covers it, with no parallel fault block.
        assert result.solved.all() and (result.rounds == 3).all()
        assert counter.requested == 5 * 16
