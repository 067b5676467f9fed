"""Unit tests for the adversarial channel models (repro.channel.models)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.channel.channel import Channel, with_collision_detection
from repro.channel.models import (
    ADAPTIVE_STRATEGIES,
    CHANNEL_MODELS,
    FB_COLLISION,
    FB_SILENCE,
    FB_SUCCESS,
    AdaptiveAdversary,
    AdaptiveStrategy,
    ChannelModel,
    CrashModel,
    NoisyChannel,
    ObliviousJammer,
    ReactiveJammer,
    channel_model_from_dict,
    register_adaptive_strategy,
)
from repro.core.feedback import Feedback


class TestObliviousJammer:
    def test_jam_schedule_consumes_exactly_the_budget(self):
        model = ObliviousJammer(budget=3, start=2, period=2)
        jammed = [r for r in range(1, 20) if model.jams_round(r)]
        assert jammed == [2, 4, 6]

    def test_jams_every_round_from_one_by_default(self):
        model = ObliviousJammer(budget=4)
        assert [model.jams_round(r) for r in range(1, 7)] == [
            True, True, True, True, False, False,
        ]

    def test_scalar_state_delivers_collisions_on_jam_rounds(self, rng):
        state = ObliviousJammer(budget=2).scalar_state()
        assert state.deliver(1, Feedback.SUCCESS, rng) is Feedback.COLLISION
        assert state.deliver(2, Feedback.SILENCE, rng) is Feedback.COLLISION
        assert state.deliver(3, Feedback.SUCCESS, rng) is Feedback.SUCCESS
        assert state.jams_used == 2

    def test_batch_state_overwrites_all_live_codes(self):
        state = ObliviousJammer(budget=1).batch_state(4)
        codes = np.array([FB_SILENCE, FB_SUCCESS, FB_COLLISION, FB_SUCCESS])
        out = state.perturb(1, codes, None)
        assert (out == FB_COLLISION).all()
        out = state.perturb(2, np.array([FB_SUCCESS]), None)
        assert (out == FB_SUCCESS).all()

    def test_null_and_flags(self):
        assert ObliviousJammer(budget=0).is_null()
        assert not ObliviousJammer(budget=1).is_null()
        model = ObliviousJammer(budget=1)
        assert not model.shrinks_population and not model.needs_fault_draws

    def test_validation(self):
        with pytest.raises(ValueError, match="jam budget must be >= 0"):
            ObliviousJammer(budget=-1)
        with pytest.raises(ValueError, match="jam start round must be >= 1"):
            ObliviousJammer(budget=1, start=0)
        with pytest.raises(ValueError, match="must be an integer"):
            ObliviousJammer(budget=True)


class TestReactiveJammer:
    def test_strikes_after_quiet_streak_and_resets(self, rng):
        state = ReactiveJammer(budget=2, quiet_streak=2).scalar_state()
        # Two delivered silences build the streak...
        assert state.deliver(1, Feedback.SILENCE, rng) is Feedback.SILENCE
        assert state.deliver(2, Feedback.SILENCE, rng) is Feedback.SILENCE
        # ...so the next round is jammed (whatever it was), streak resets.
        assert state.deliver(3, Feedback.SUCCESS, rng) is Feedback.COLLISION
        assert state.deliver(4, Feedback.SILENCE, rng) is Feedback.SILENCE
        assert state.deliver(5, Feedback.SILENCE, rng) is Feedback.SILENCE
        assert state.deliver(6, Feedback.SUCCESS, rng) is Feedback.COLLISION
        # Budget exhausted: streaks no longer trigger jams.
        assert state.deliver(7, Feedback.SILENCE, rng) is Feedback.SILENCE
        assert state.deliver(8, Feedback.SILENCE, rng) is Feedback.SILENCE
        assert state.deliver(9, Feedback.SUCCESS, rng) is Feedback.SUCCESS
        assert state.jams_used == 2

    def test_batch_state_tracks_per_trial_streaks(self):
        state = ReactiveJammer(budget=1, quiet_streak=1).batch_state(2)
        # Trial 0 silent (streak builds), trial 1 collides (no streak).
        out = state.perturb(1, np.array([FB_SILENCE, FB_COLLISION]), None)
        assert out.tolist() == [FB_SILENCE, FB_COLLISION]
        # Only trial 0 earned a jam.
        out = state.perturb(2, np.array([FB_SUCCESS, FB_SUCCESS]), None)
        assert out.tolist() == [FB_COLLISION, FB_SUCCESS]
        assert state.remaining.tolist() == [0, 1]

    def test_filter_keeps_state_aligned(self):
        state = ReactiveJammer(budget=5, quiet_streak=1).batch_state(3)
        state.perturb(1, np.array([FB_SILENCE, FB_COLLISION, FB_SILENCE]), None)
        state.filter(np.array([True, False, True]))
        assert state.streak.tolist() == [1, 1]
        assert state.remaining.tolist() == [5, 5]

    def test_null_and_validation(self):
        assert ReactiveJammer(budget=0).is_null()
        with pytest.raises(ValueError, match="quiet streak must be >= 1"):
            ReactiveJammer(budget=1, quiet_streak=0)


class TestNoisyChannel:
    def test_flip_directions(self):
        model = NoisyChannel(
            silence_to_collision=1.0,
            collision_to_silence=1.0,
            success_erasure=1.0,
        )
        rng = np.random.default_rng(0)
        state = model.scalar_state()
        assert state.deliver(1, Feedback.SILENCE, rng) is Feedback.COLLISION
        assert state.deliver(2, Feedback.COLLISION, rng) is Feedback.SILENCE
        assert state.deliver(3, Feedback.SUCCESS, rng) is Feedback.SILENCE

    def test_scalar_draws_one_uniform_per_round(self):
        class _Counting:
            calls = 0

            def random(self):
                type(self).calls += 1
                return 0.99

        state = NoisyChannel(silence_to_collision=0.5).scalar_state()
        counter = _Counting()
        for round_index, feedback in enumerate(
            [Feedback.SILENCE, Feedback.SUCCESS, Feedback.COLLISION], start=1
        ):
            assert state.deliver(round_index, feedback, counter) is feedback
        assert _Counting.calls == 3

    def test_batch_perturb_uses_per_code_thresholds(self):
        state = NoisyChannel(
            silence_to_collision=0.3, success_erasure=0.6
        ).batch_state(3)
        codes = np.array([FB_SILENCE, FB_SUCCESS, FB_COLLISION])
        draws = np.array([0.2, 0.5, 0.0])  # silence flips, success erased,
        out = state.perturb(1, codes, draws)  # collision has threshold 0
        assert out.tolist() == [FB_COLLISION, FB_SILENCE, FB_COLLISION]

    def test_null_and_flags(self):
        assert NoisyChannel().is_null()
        assert not NoisyChannel(success_erasure=0.1).is_null()
        assert NoisyChannel(success_erasure=0.1).needs_fault_draws

    def test_validation(self):
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            NoisyChannel(silence_to_collision=1.5)
        with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
            NoisyChannel(success_erasure=-0.1)


class TestCrashModel:
    def test_rejoin_zero_is_pure_message_loss(self):
        state = CrashModel(probability=1.0, rejoin_after=0).scalar_state()
        rng = np.random.default_rng(0)
        assert state.deliver(1, Feedback.SUCCESS, rng) is Feedback.SILENCE
        assert not state.take_crash()
        assert state.active_count(5, 2) == 5

    def test_rejoin_delay_kills_then_revives(self):
        state = CrashModel(probability=1.0, rejoin_after=3).scalar_state()
        rng = np.random.default_rng(0)
        assert state.deliver(2, Feedback.SUCCESS, rng) is Feedback.SILENCE
        assert state.take_crash()
        assert not state.take_crash()  # the event is consumed
        # Dead through rounds 3..5, back at round 6.
        assert state.active_count(5, 3) == 4
        assert state.active_count(5, 5) == 4
        assert state.active_count(5, 6) == 5

    def test_never_rejoin(self):
        state = CrashModel(probability=1.0, rejoin_after=None).scalar_state()
        rng = np.random.default_rng(0)
        state.deliver(1, Feedback.SUCCESS, rng)
        assert state.take_crash()
        assert state.active_count(5, 100) == 4

    def test_only_success_rounds_draw_randomness(self):
        class _Counting:
            calls = 0

            def random(self):
                type(self).calls += 1
                return 0.99

        state = CrashModel(probability=0.5).scalar_state()
        counter = _Counting()
        state.deliver(1, Feedback.SILENCE, counter)
        state.deliver(2, Feedback.COLLISION, counter)
        assert _Counting.calls == 0
        state.deliver(3, Feedback.SUCCESS, counter)
        assert _Counting.calls == 1

    def test_capability_flags_split_by_rejoin_delay(self):
        """Every crash batches on the uniform engines; only the
        instant-rejoin variant keeps the population fixed, so only it is
        admissible on the player/open substrates."""
        instant = CrashModel(probability=0.5, rejoin_after=0)
        assert instant.fusable and instant.needs_fault_draws
        assert not instant.shrinks_population

        for delayed in (
            CrashModel(probability=0.5, rejoin_after=1),
            CrashModel(probability=0.5),  # rejoin_after=None: dead forever
        ):
            assert delayed.shrinks_population
            assert delayed.fusable and delayed.needs_fault_draws
            assert delayed.batch_state(4) is not None

    def test_rejoin_batch_state_tracks_active_counts(self):
        """Crash at round r removes a station from the next r+1..r+d
        rounds and returns it at r+d+1; dead-forever never returns."""
        state = CrashModel(probability=1.0, rejoin_after=2).batch_state(2)
        ks = np.array([3, 3], dtype=np.int64)
        assert state.active_counts(ks, 1).tolist() == [3, 3]
        codes = np.array([FB_SUCCESS, FB_SILENCE])
        out = state.perturb(1, codes, np.array([0.0, 0.0]))
        assert out.tolist() == [FB_SILENCE, FB_SILENCE]
        # Trial 0's station is out for rounds 2 and 3, back at round 4.
        assert state.active_counts(ks, 2).tolist() == [2, 3]
        assert state.active_counts(ks, 3).tolist() == [2, 3]
        assert state.active_counts(ks, 4).tolist() == [3, 3]

        forever = CrashModel(probability=1.0, rejoin_after=None).batch_state(1)
        ks = np.array([2], dtype=np.int64)
        forever.perturb(1, np.array([FB_SUCCESS]), np.array([0.0]))
        for round_index in range(2, 8):
            assert forever.active_counts(ks, round_index).tolist() == [1]

    def test_batch_perturb_erases_successes_only(self):
        state = CrashModel(probability=0.5, rejoin_after=0).batch_state(3)
        codes = np.array([FB_SUCCESS, FB_SUCCESS, FB_COLLISION])
        out = state.perturb(1, codes, np.array([0.1, 0.9, 0.1]))
        assert out.tolist() == [FB_SILENCE, FB_SUCCESS, FB_COLLISION]

    def test_null_and_validation(self):
        assert CrashModel(probability=0.0).is_null()
        with pytest.raises(ValueError, match="crash probability"):
            CrashModel(probability=2.0)
        with pytest.raises(ValueError, match="rejoin delay"):
            CrashModel(probability=0.5, rejoin_after=-1)


class TestAdaptiveAdversary:
    def test_greedy_scalar_state_suppresses_successes(self, rng):
        state = AdaptiveAdversary(budget=2, strategy="greedy").scalar_state()
        assert state.deliver(1, Feedback.SILENCE, rng) is Feedback.SILENCE
        assert state.deliver(2, Feedback.SUCCESS, rng) is Feedback.COLLISION
        assert state.deliver(3, Feedback.COLLISION, rng) is Feedback.COLLISION
        assert state.jams_used == 1  # collisions are free, never jammed
        assert state.deliver(4, Feedback.SUCCESS, rng) is Feedback.COLLISION
        assert state.deliver(5, Feedback.SUCCESS, rng) is Feedback.SUCCESS
        assert state.jams_used == 2 and state.remaining == 0

    def test_batch_perturb_budget_and_collision_exemption(self):
        state = AdaptiveAdversary(budget=1, strategy="greedy").batch_state(3)
        codes = np.array([FB_SUCCESS, FB_COLLISION, FB_SILENCE])
        out = state.perturb(1, codes, None)
        # Success jammed, collision left alone (free), silence untouched.
        assert out.tolist() == [FB_COLLISION, FB_COLLISION, FB_SILENCE]
        assert state.remaining.tolist() == [0, 1, 1]
        out = state.perturb(2, np.array([FB_SUCCESS] * 3), None)
        assert out.tolist() == [FB_SUCCESS, FB_COLLISION, FB_COLLISION]
        assert state.spent.tolist() == [1, 1, 1]

    def test_filter_reindexes_budget_accounts(self):
        state = AdaptiveAdversary(budget=2, strategy="streak").batch_state(4)
        state.perturb(1, np.array([FB_SILENCE] * 4), None)
        state.perturb(2, np.full(4, FB_SUCCESS), None)
        state.filter(np.array([True, False, True, False]))
        assert state.remaining.shape == (2,)
        assert (state.remaining + state.spent == 2).all()
        assert state.arrays["streak"].shape == (2,)

    def test_scheduler_modes(self):
        front = AdaptiveAdversary(
            budget=2, strategy="scheduler", mode="front"
        ).batch_state(1)
        assert front.perturb(1, np.array([FB_SILENCE]), None).tolist() == [
            FB_COLLISION
        ]
        back = AdaptiveAdversary(
            budget=2, strategy="scheduler", mode="back"
        ).batch_state(1)
        # Unarmed until the first faithful success.
        assert back.perturb(1, np.array([FB_SILENCE]), None).tolist() == [
            FB_SILENCE
        ]
        assert back.perturb(2, np.array([FB_SUCCESS]), None).tolist() == [
            FB_COLLISION
        ]
        assert back.perturb(3, np.array([FB_SILENCE]), None).tolist() == [
            FB_COLLISION
        ]
        assert back.perturb(4, np.array([FB_SUCCESS]), None).tolist() == [
            FB_SUCCESS  # budget spent
        ]

    def test_validation_messages_are_actionable(self):
        with pytest.raises(ValueError, match="unknown adaptive strategy 'nope'; known: greedy"):
            AdaptiveAdversary(budget=1, strategy="nope")
        with pytest.raises(ValueError, match="budget must be >= 0"):
            AdaptiveAdversary(budget=-1)
        with pytest.raises(ValueError, match="patience must be >= 1"):
            AdaptiveAdversary(budget=1, strategy="streak", patience=0)
        with pytest.raises(ValueError, match="'front' or 'back'"):
            AdaptiveAdversary(budget=1, strategy="scheduler", mode="up")

    def test_strategy_registry_rejects_duplicates(self):
        class _Dup(AdaptiveStrategy):
            name = "greedy"

            def jam_candidates(self, model, arrays, round_index, codes):
                raise NotImplementedError

        with pytest.raises(ValueError, match="already registered"):
            register_adaptive_strategy(_Dup())
        assert set(ADAPTIVE_STRATEGIES) >= {"greedy", "streak", "scheduler"}

    def test_null_and_flags(self):
        assert AdaptiveAdversary(budget=0).is_null()
        model = AdaptiveAdversary(budget=3, strategy="scheduler", mode="front")
        assert not model.is_null()
        assert not model.shrinks_population
        assert not model.needs_fault_draws
        assert not model.fusable  # deliberate fusion opt-out


class TestSerialization:
    @pytest.mark.parametrize(
        "model",
        [
            ObliviousJammer(budget=5, start=3, period=2),
            ReactiveJammer(budget=2, quiet_streak=4),
            NoisyChannel(silence_to_collision=0.1, success_erasure=0.25),
            CrashModel(probability=0.3, rejoin_after=7),
            CrashModel(probability=0.3, rejoin_after=None),
            AdaptiveAdversary(budget=4, strategy="greedy"),
            AdaptiveAdversary(budget=2, strategy="streak", patience=3),
            AdaptiveAdversary(budget=6, strategy="scheduler", mode="front"),
        ],
    )
    def test_dict_round_trip(self, model: ChannelModel):
        assert channel_model_from_dict(model.to_dict()) == model

    def test_registry_covers_every_model(self):
        assert set(CHANNEL_MODELS) == {
            "jam-oblivious", "jam-reactive", "jam-adaptive", "noise", "crash",
        }

    def test_unknown_model_lists_known_ones(self):
        with pytest.raises(ValueError) as error:
            channel_model_from_dict({"name": "bogus"})
        message = str(error.value)
        assert "bogus" in message
        for known in CHANNEL_MODELS:
            assert known in message

    def test_unknown_params_list_allowed_ones(self):
        with pytest.raises(ValueError, match="allowed: budget, start, period"):
            channel_model_from_dict(
                {"name": "jam-oblivious", "params": {"budget": 1, "bogus": 2}}
            )

    def test_unknown_top_level_fields_rejected(self):
        with pytest.raises(ValueError, match="allowed: name, params"):
            channel_model_from_dict({"name": "noise", "extra": 1})

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            channel_model_from_dict("noise")
        with pytest.raises(ValueError, match="params must be a mapping"):
            channel_model_from_dict({"name": "noise", "params": [1]})

    def test_labels_are_compact(self):
        assert (
            ObliviousJammer(budget=5).label()
            == "jam-oblivious(budget=5,start=1,period=1)"
        )


class TestChannelIntegration:
    def test_active_model_reduces_null_models(self):
        assert with_collision_detection(ObliviousJammer(budget=0)).active_model is None
        assert with_collision_detection(NoisyChannel()).active_model is None
        assert with_collision_detection(CrashModel(probability=0.0)).active_model is None
        jam = ObliviousJammer(budget=1)
        assert with_collision_detection(jam).active_model is jam

    def test_model_label(self):
        assert with_collision_detection().model_label() == "faithful"
        assert with_collision_detection(ObliviousJammer(budget=0)).model_label() == "faithful"
        assert "jam-oblivious" in with_collision_detection(
            ObliviousJammer(budget=2)
        ).model_label()

    def test_with_model(self):
        channel = with_collision_detection()
        jammed = channel.with_model(ObliviousJammer(budget=1))
        assert jammed.collision_detection
        assert jammed.active_model == ObliviousJammer(budget=1)
        assert jammed.with_model(None).active_model is None

    def test_channel_stays_hashable(self):
        a = Channel(True, NoisyChannel(success_erasure=0.5))
        b = Channel(True, NoisyChannel(success_erasure=0.5))
        assert a == b and hash(a) == hash(b)
