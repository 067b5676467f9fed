"""Property-based tests (hypothesis) for the adversarial channel models.

The invariants every engine leans on:

* a budgeted jammer never spends more than its budget, whatever feedback
  sequence it observes - scalar and batch states alike;
* null-parameter models (zero budget, all-zero probabilities) reduce to
  the faithful channel and run bit-identically to no model at all;
* serialization round-trips exactly for every constructible model.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import (
    AdaptiveAdversary,
    Channel,
    CrashModel,
    NoisyChannel,
    ObliviousJammer,
    ReactiveJammer,
    channel_model_from_dict,
    run_uniform,
    run_uniform_batch,
)
from repro.channel.models import FB_COLLISION, FB_SILENCE, FB_SUCCESS
from repro.core.feedback import Feedback
from repro.protocols.decay import DecayProtocol

N = 2**8

_FEEDBACKS = [Feedback.SILENCE, Feedback.SUCCESS, Feedback.COLLISION]

feedback_sequences = st.lists(
    st.sampled_from(_FEEDBACKS), min_size=1, max_size=60
)

oblivious_jammers = st.builds(
    ObliviousJammer,
    budget=st.integers(min_value=0, max_value=20),
    start=st.integers(min_value=1, max_value=10),
    period=st.integers(min_value=1, max_value=5),
)

reactive_jammers = st.builds(
    ReactiveJammer,
    budget=st.integers(min_value=0, max_value=20),
    quiet_streak=st.integers(min_value=1, max_value=5),
)

adaptive_adversaries = st.builds(
    AdaptiveAdversary,
    budget=st.integers(min_value=0, max_value=20),
    strategy=st.sampled_from(["greedy", "streak", "scheduler"]),
    patience=st.integers(min_value=1, max_value=5),
    mode=st.sampled_from(["front", "back"]),
)

budgeted_models = st.one_of(
    oblivious_jammers, reactive_jammers, adaptive_adversaries
)

probabilities = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)

any_model = st.one_of(
    oblivious_jammers,
    reactive_jammers,
    adaptive_adversaries,
    st.builds(
        NoisyChannel,
        silence_to_collision=probabilities,
        collision_to_silence=probabilities,
        success_erasure=probabilities,
    ),
    st.builds(
        CrashModel,
        probability=probabilities,
        rejoin_after=st.one_of(
            st.none(), st.integers(min_value=0, max_value=10)
        ),
    ),
)


class TestJamBudgetInvariant:
    @given(budgeted_models, feedback_sequences)
    def test_scalar_state_never_exceeds_budget(self, model, feedbacks):
        rng = np.random.default_rng(0)
        state = model.scalar_state()
        delivered = [
            state.deliver(round_index, feedback, rng)
            for round_index, feedback in enumerate(feedbacks, start=1)
        ]
        assert state.jams_used <= model.budget
        # Every jam manifests as a delivered collision.
        forced = sum(
            1
            for before, after in zip(feedbacks, delivered)
            if after is Feedback.COLLISION and before is not Feedback.COLLISION
        )
        assert forced <= model.budget

    @given(
        budgeted_models,
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0),
    )
    def test_batch_state_never_exceeds_budget(
        self, model, trials, rounds, seed
    ):
        rng = np.random.default_rng(seed)
        state = model.batch_state(trials)
        forced = np.zeros(trials, dtype=np.int64)
        for round_index in range(1, rounds + 1):
            codes = rng.integers(0, 3, size=trials)
            before = codes.copy()
            after = state.perturb(round_index, codes, None)
            forced += (after == FB_COLLISION) & (before != FB_COLLISION)
        assert (forced <= model.budget).all()

    @given(
        adaptive_adversaries,
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=0),
    )
    def test_adaptive_budget_conserved_under_filter(
        self, model, trials, rounds, seed
    ):
        """``remaining + spent == budget`` per trial, and trial
        retirement (``BatchFaultState.filter``) reindexes the adversary's
        accounts and strategy arrays consistently with the survivors."""
        rng = np.random.default_rng(seed)
        state = model.batch_state(trials)
        live = trials
        for round_index in range(1, rounds + 1):
            codes = rng.integers(0, 3, size=live)
            state.perturb(round_index, codes, None)
            assert (state.remaining + state.spent == model.budget).all()
            assert (state.remaining >= 0).all()
            # Retire a random subset, the way the engines drop solved
            # trials; the adversary must follow the survivors.
            keep = rng.random(live) < 0.8
            if not keep.any():
                keep[rng.integers(live)] = True
            expected_remaining = state.remaining[keep].copy()
            state.filter(keep)
            live = int(keep.sum())
            assert state.remaining.shape == (live,)
            assert (state.remaining == expected_remaining).all()
            assert (state.remaining + state.spent == model.budget).all()
            for array in state.arrays.values():
                assert array.shape[0] == live

    @given(oblivious_jammers)
    def test_schedule_spends_exactly_the_budget_eventually(self, model):
        horizon = model.start + model.period * (model.budget + 3)
        jammed = sum(model.jams_round(r) for r in range(1, horizon + 1))
        assert jammed == model.budget


class TestNullReduction:
    @given(
        st.one_of(
            oblivious_jammers.map(
                lambda m: ObliviousJammer(0, m.start, m.period)
            ),
            reactive_jammers.map(lambda m: ReactiveJammer(0, m.quiet_streak)),
            adaptive_adversaries.map(
                lambda m: AdaptiveAdversary(
                    0, strategy=m.strategy, patience=m.patience, mode=m.mode
                )
            ),
            st.just(NoisyChannel()),
            st.just(CrashModel(probability=0.0)),
            st.just(CrashModel(probability=0.0, rejoin_after=4)),
        )
    )
    def test_null_models_report_null_and_reduce(self, model):
        assert model.is_null()
        assert Channel(False, model).active_model is None
        assert Channel(True, model).model_label() == "faithful"

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(
            [
                ObliviousJammer(budget=0, start=5, period=2),
                ReactiveJammer(budget=0, quiet_streak=3),
                AdaptiveAdversary(budget=0, strategy="greedy"),
                AdaptiveAdversary(budget=0, strategy="streak", patience=3),
                AdaptiveAdversary(budget=0, strategy="scheduler", mode="front"),
                NoisyChannel(),
                CrashModel(probability=0.0),
            ]
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_null_models_bit_identical_on_engines(self, model, seed):
        """Scalar and batch runs with a null model reproduce the
        faithful runs of the same generator bit for bit."""
        protocol = DecayProtocol(N)
        faithful = Channel(False)
        nulled = faithful.with_model(model)

        scalar_a = run_uniform(
            protocol, 9, np.random.default_rng(seed), channel=faithful,
            max_rounds=150,
        )
        scalar_b = run_uniform(
            protocol, 9, np.random.default_rng(seed), channel=nulled,
            max_rounds=150,
        )
        assert scalar_a.solved == scalar_b.solved
        assert scalar_a.rounds == scalar_b.rounds

        ks = np.full(25, 9, dtype=np.int64)
        batch_a = run_uniform_batch(
            protocol, ks, np.random.default_rng(seed), channel=faithful,
            max_rounds=150,
        )
        batch_b = run_uniform_batch(
            protocol, ks, np.random.default_rng(seed), channel=nulled,
            max_rounds=150,
        )
        assert (batch_a.solved == batch_b.solved).all()
        assert (batch_a.rounds == batch_b.rounds).all()


class TestModelAlgebra:
    @given(any_model)
    def test_serialization_round_trips(self, model):
        assert channel_model_from_dict(model.to_dict()) == model

    @given(any_model)
    def test_label_names_the_model(self, model):
        assert model.label().startswith(model.name)

    @given(any_model)
    def test_capability_flags_are_consistent(self, model):
        # Every registry model now builds a batch state (the rejoin-delay
        # crash grew a per-trial ring buffer); the finer capability flags
        # must respect the lattice the routing layers assume.
        assert model.batch_state(4) is not None
        if model.shrinks_population:
            # Shrinking models express crashes as per-trial active-count
            # bands; only the stacked uniform engines understand those.
            assert isinstance(model, CrashModel)
            assert model.rejoin_after != 0
        if isinstance(model, AdaptiveAdversary):
            # Adaptive state partitions cleanly per trial, but fusing
            # would blur which spec drove which jam - kept unfusable.
            assert not model.fusable
        else:
            assert model.fusable

    @given(
        budgeted_models,
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=30),
    )
    def test_jammers_only_force_collisions(self, model, trials, rounds):
        """A jammer may replace feedback with a collision, never with
        anything else: non-collision deliveries are the faithful codes."""
        state = model.batch_state(trials)
        rng = np.random.default_rng(7)
        for round_index in range(1, rounds + 1):
            codes = rng.integers(0, 3, size=trials)
            before = codes.copy()
            after = state.perturb(round_index, codes, None)
            unchanged = after == before
            assert ((after == FB_COLLISION) | unchanged).all()
