"""Tests for estimator engine routing and the player-batch contract."""

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    ENGINE_BATCH_HISTORY,
    ENGINE_BATCH_PLAYER,
    ENGINE_BATCH_SCHEDULE,
    ENGINE_SCALAR_PLAYER,
    ENGINE_SCALAR_UNIFORM,
    estimate_player_rounds,
    route,
)
from repro.channel.channel import with_collision_detection
from repro.channel.network import RandomAdversary
from repro.protocols.adapters import UniformAsPlayerProtocol
from repro.protocols.backoff import BinaryExponentialBackoff
from repro.protocols.decay import DecayProtocol
from repro.protocols.restart import FallbackPlayerProtocol, RestartProtocol
from repro.protocols.willard import WillardProtocol


class TestSelectUniformEngine:
    def test_schedule_protocols_hit_the_schedule_engine(self):
        assert route(DecayProtocol(256)).engine == ENGINE_BATCH_SCHEDULE

    def test_cd_search_hits_the_history_engine(self):
        assert route(WillardProtocol(256)).engine == ENGINE_BATCH_HISTORY

    def test_batch_false_forces_scalar(self):
        assert (
            route(DecayProtocol(256), False).engine
            == ENGINE_SCALAR_UNIFORM
        )

    def test_factories_run_scalar(self):
        assert (
            route(lambda: DecayProtocol(256)).engine
            == ENGINE_SCALAR_UNIFORM
        )

    def test_batch_true_on_factory_raises(self):
        with pytest.raises(ValueError, match="batch=True"):
            route(lambda: DecayProtocol(256), True)


def _fallback_protocol() -> FallbackPlayerProtocol:
    """A genuinely non-batchable combinator: one half has randomized
    sessions (a factory restart), so no batch sessions exist."""
    return FallbackPlayerProtocol(
        BinaryExponentialBackoff(),
        UniformAsPlayerProtocol(RestartProtocol(lambda: WillardProtocol(64))),
        budget_rounds=16,
    )


class TestSelectPlayerEngine:
    """route's player rules mirror its uniform rules."""

    def test_batchable_protocols_hit_the_player_engine(self):
        assert (
            route(BinaryExponentialBackoff()).engine
            == ENGINE_BATCH_PLAYER
        )

    def test_batch_false_forces_scalar(self):
        assert (
            route(BinaryExponentialBackoff(), False).engine
            == ENGINE_SCALAR_PLAYER
        )

    def test_fallback_combinator_batches_when_halves_do(self):
        protocol = FallbackPlayerProtocol(
            BinaryExponentialBackoff(),
            UniformAsPlayerProtocol(WillardProtocol(64)),
            budget_rounds=16,
        )
        assert route(protocol).engine == ENGINE_BATCH_PLAYER

    def test_non_batchable_combinators_run_scalar(self):
        assert route(_fallback_protocol()).engine == ENGINE_SCALAR_PLAYER

    def test_batch_true_on_non_batchable_raises(self):
        with pytest.raises(ValueError, match="batch=True"):
            route(_fallback_protocol(), True)


class TestPlayerBatchContract:
    def _estimate(self, batch, protocol=None):
        adversary = RandomAdversary()
        return estimate_player_rounds(
            protocol if protocol is not None else BinaryExponentialBackoff(),
            lambda rng: adversary.checked_select(64, 3, rng),
            64,
            np.random.default_rng(0),
            channel=with_collision_detection(),
            trials=10,
            max_rounds=200,
            batch=batch,
        )

    def test_batch_true_on_non_batchable_raises(self):
        """batch=True insists on the vectorized engine - no silent (or
        warned) fallback, exactly like the uniform estimator."""
        with pytest.raises(ValueError, match="batch=True"):
            self._estimate(True, protocol=_fallback_protocol())

    def test_batch_true_runs_batchable_protocols(self):
        assert self._estimate(True).success.trials == 10

    def test_batch_none_and_false_both_complete(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            auto = self._estimate(None)
            scalar = self._estimate(False)
        assert auto.success.trials == scalar.success.trials == 10

    def test_batch_flag_ignored_for_non_batchable_protocols(self):
        """None/False must not perturb the scalar RNG stream or results."""
        protocol = _fallback_protocol()
        auto = self._estimate(None, protocol=protocol)
        assert auto.rounds == self._estimate(False, protocol=protocol).rounds
