"""Tests for the protocol registry: coverage, building, validation."""

import pytest

from repro.core.predictions import Prediction
from repro.core.protocol import PlayerProtocol, UniformProtocol
from repro.infotheory.distributions import SizeDistribution
from repro.protocols.advice_deterministic import DeterministicScanProtocol
from repro.protocols.restart import FallbackPlayerProtocol, RestartProtocol
from repro.protocols.willard import WillardProtocol
from repro.scenarios.registry import (
    PLAYER,
    UNIFORM,
    BuildContext,
    build_protocol,
    get_protocol,
    protocol_ids,
)
from repro.scenarios.spec import ProtocolSpec, ScenarioError

N = 1024


def build(protocol_id: str, params: dict | None = None, *, prediction=None):
    context = BuildContext(n=N, prediction=prediction)
    return build_protocol(ProtocolSpec(protocol_id, params or {}), context)


def toy_prediction() -> Prediction:
    return Prediction(SizeDistribution.range_uniform_subset(N, [2, 5]))


class TestCoverage:
    def test_every_protocol_class_is_reachable(self):
        """The registry spans the whole protocols package."""
        expected = {
            "decay", "willard", "fixed-probability", "sorted-probing",
            "code-search", "phased-search", "truncated-decay",
            "truncated-willard", "restart", "backoff", "deterministic-scan",
            "tree-descent", "uniform-as-player", "fallback",
        }
        assert expected <= set(protocol_ids())

    def test_unknown_id_lists_options(self):
        with pytest.raises(ScenarioError, match="unknown protocol 'carrier-sense'; known: .*decay"):
            get_protocol("carrier-sense")

    def test_kinds_route_to_engine_families(self):
        assert get_protocol("decay").kind == UNIFORM
        assert get_protocol("backoff").kind == PLAYER


class TestUniformBuilders:
    def test_decay_defaults_to_context_n(self):
        protocol = build("decay")
        assert protocol.n == N and protocol.cycle

    def test_willard_params(self):
        protocol = build("willard", {"repetitions": 5, "restart": False})
        assert isinstance(protocol, WillardProtocol)
        assert protocol.repetitions == 5 and not protocol.restart

    def test_fixed_probability_requires_k_hat(self):
        with pytest.raises(ScenarioError, match="k_hat"):
            build("fixed-probability")
        assert build("fixed-probability", {"k_hat": 16}).k_hat == 16.0

    def test_prediction_protocols_require_prediction(self):
        with pytest.raises(ScenarioError, match="needs a prediction"):
            build("sorted-probing")
        protocol = build("sorted-probing", prediction=toy_prediction())
        assert isinstance(protocol, UniformProtocol)

    def test_code_search_builds(self):
        protocol = build(
            "code-search", {"one_shot": False}, prediction=toy_prediction()
        )
        assert protocol.restart  # one_shot=False => restarting sweeps

    def test_truncated_protocols_take_k_or_block_index(self):
        by_k = build("truncated-decay", {"advice_bits": 2, "k": 40})
        by_block = build("truncated-decay", {"advice_bits": 2, "block_index": 1})
        assert by_k.block == by_block.block  # range 6 (k=40) sits in block 1
        with pytest.raises(ScenarioError, match="exactly one of"):
            build("truncated-decay", {"advice_bits": 2})
        with pytest.raises(ScenarioError, match="exactly one of"):
            build("truncated-willard", {"advice_bits": 2, "k": 8, "block_index": 0})

    def test_restart_wraps_inner_spec(self):
        protocol = build(
            "restart", {"inner": {"id": "decay", "params": {"cycle": False}}}
        )
        assert isinstance(protocol, RestartProtocol)

    def test_unknown_params_rejected(self):
        with pytest.raises(ScenarioError, match="cylce"):
            build("decay", {"cylce": False})


class TestPlayerBuilders:
    def test_scan_and_descent(self):
        scan = build("deterministic-scan", {"advice_bits": 3})
        assert isinstance(scan, DeterministicScanProtocol)
        descent = build("tree-descent", {"advice_bits": 3})
        assert isinstance(descent, PlayerProtocol)

    def test_uniform_as_player_requires_uniform_inner(self):
        protocol = build(
            "uniform-as-player", {"inner": {"id": "decay", "params": {}}}
        )
        assert isinstance(protocol, PlayerProtocol)
        with pytest.raises(ScenarioError, match="uniform inner"):
            build("uniform-as-player", {"inner": {"id": "backoff", "params": {}}})

    def test_fallback_worst_case_budget(self):
        protocol = build(
            "fallback",
            {
                "primary": {"id": "deterministic-scan", "params": {"advice_bits": 4}},
                "fallback": {
                    "id": "uniform-as-player",
                    "params": {"inner": {"id": "decay", "params": {}}},
                },
                "budget_rounds": "worst-case",
            },
        )
        assert isinstance(protocol, FallbackPlayerProtocol)
        assert protocol.budget_rounds == DeterministicScanProtocol(4).worst_case_rounds(N)

    def test_fallback_rejects_player_without_worst_case(self):
        with pytest.raises(ScenarioError, match="worst_case_rounds"):
            build(
                "fallback",
                {
                    "primary": {"id": "backoff", "params": {}},
                    "fallback": {
                        "id": "uniform-as-player",
                        "params": {"inner": {"id": "decay", "params": {}}},
                    },
                },
            )
