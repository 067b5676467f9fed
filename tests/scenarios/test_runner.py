"""Tests for run_scenario: engine routing, reproducibility, JSON results."""

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    ENGINE_BATCH_HISTORY,
    ENGINE_BATCH_PLAYER,
    ENGINE_BATCH_SCHEDULE,
    ENGINE_SCALAR_PLAYER,
    ENGINE_SCALAR_UNIFORM,
)
from repro.scenarios import ScenarioResult, ScenarioSpec, run_scenario
from repro.scenarios.spec import ScenarioError


def spec_dict(**overrides) -> dict:
    base = {
        "name": "t",
        "protocol": {"id": "decay", "params": {}},
        "workload": {"kind": "fixed", "params": {"k": 8}},
        "channel": "nocd",
        "n": 1024,
        "trials": 120,
        "max_rounds": 400,
        "seed": 5,
    }
    base.update(overrides)
    return base


def run(**overrides) -> ScenarioResult:
    return run_scenario(ScenarioSpec.from_dict(spec_dict(**overrides)))


class TestEngineRouting:
    def test_schedule_protocol_routes_to_batch_schedule(self):
        assert run().engine == ENGINE_BATCH_SCHEDULE

    def test_cd_search_routes_to_history_engine(self):
        result = run(protocol={"id": "willard", "params": {}}, channel="cd")
        assert result.engine == ENGINE_BATCH_HISTORY

    def test_batch_false_forces_scalar(self):
        assert run(batch=False).engine == ENGINE_SCALAR_UNIFORM

    def test_batchable_player_protocol_routes_to_player_engine(self):
        result = run(
            protocol={"id": "backoff", "params": {}},
            channel="cd",
            workload={"kind": "fixed", "params": {"k": 4}},
        )
        assert result.engine == ENGINE_BATCH_PLAYER
        assert result.metadata["adversary"] == "random"

    def test_player_batch_false_forces_scalar_loop(self):
        result = run(
            protocol={"id": "backoff", "params": {}},
            channel="cd",
            workload={"kind": "fixed", "params": {"k": 4}},
            batch=False,
        )
        assert result.engine == ENGINE_SCALAR_PLAYER

    def test_fallback_combinator_routes_to_player_engine(self):
        """The fallback wrapper batches whenever both halves do (it was
        the last scalar-only combinator before the array-state phase
        tracking landed)."""
        result = run(
            protocol={
                "id": "fallback",
                "params": {
                    "primary": {"id": "backoff", "params": {}},
                    "fallback": {
                        "id": "uniform-as-player",
                        "params": {"inner": {"id": "willard", "params": {}}},
                    },
                    "budget_rounds": 64,
                },
            },
            channel="cd",
            workload={"kind": "fixed", "params": {"k": 4}},
        )
        assert result.engine == ENGINE_BATCH_PLAYER

    def test_engine_recorded_in_metadata(self):
        result = run()
        assert result.metadata["engine"] == result.engine
        assert result.metadata["kind"] == "uniform"


class TestWorkloads:
    def test_distribution_workload(self):
        result = run(
            protocol={"id": "sorted-probing", "params": {"one_shot": False}},
            prediction="truth",
            workload={
                "kind": "distribution",
                "params": {"family": "range_uniform_subset", "ranges": [2, 6]},
            },
        )
        assert result.success.rate > 0.9

    def test_bursty_workload_runs_batched(self):
        result = run(
            workload={
                "kind": "bursty",
                "params": {
                    "calm_rate": 0.004,
                    "burst_rate": 0.25,
                    "burst_arrival": 0.05,
                    "burst_departure": 0.2,
                },
            },
        )
        assert result.engine == ENGINE_BATCH_SCHEDULE
        assert result.success.trials == 120

    def test_trace_workload(self):
        result = run(workload={"kind": "trace", "params": {"ks": [4, 9, 17]}})
        assert result.success.rate > 0.9

    def test_unknown_family_and_kind(self):
        with pytest.raises(ScenarioError, match="family"):
            run(workload={"kind": "distribution", "params": {"family": "nope"}})
        with pytest.raises(ScenarioError, match="workload kind"):
            run(workload={"kind": "stochastic", "params": {}})


class TestValidation:
    def test_truth_prediction_needs_distribution_workload(self):
        with pytest.raises(ScenarioError, match="'truth'"):
            run(
                protocol={"id": "sorted-probing", "params": {}},
                prediction="truth",
            )

    def test_advice_on_uniform_protocol_rejected(self):
        with pytest.raises(ScenarioError, match="no advice"):
            run(advice={"function": "null", "bits": 0})

    def test_player_needs_fixed_workload(self):
        with pytest.raises(ScenarioError, match="'fixed'"):
            run(
                protocol={"id": "backoff", "params": {}},
                channel="cd",
                workload={
                    "kind": "distribution",
                    "params": {"family": "uniform"},
                },
            )

    def test_bad_parameter_values_surface_as_scenario_errors(self):
        """Value errors (not just unknown names) must stay inside the API."""
        with pytest.raises(ScenarioError, match="out of bounds"):
            run(
                workload={
                    "kind": "distribution",
                    "params": {"family": "range_uniform_subset", "ranges": [999]},
                }
            )
        with pytest.raises(ScenarioError, match="1.0 is not an integer"):
            run(
                workload={
                    "kind": "distribution",
                    "params": {
                        "family": "range_uniform_subset",
                        "ranges": [1.0, 4, 6, 8],
                    },
                }
            )
        with pytest.raises(ScenarioError, match="bursty"):
            run(
                workload={
                    "kind": "bursty",
                    "params": {
                        "calm_rate": 2.0,
                        "burst_rate": 0.2,
                        "burst_arrival": 0.1,
                        "burst_departure": 0.1,
                    },
                }
            )
        with pytest.raises(ScenarioError, match="'willard'"):
            run(
                protocol={"id": "willard", "params": {"repetitions": 2}},
                channel="cd",
            )
        with pytest.raises(ScenarioError, match="corruption"):
            run(
                protocol={"id": "backoff", "params": {}},
                channel="cd",
                advice={
                    "function": "null",
                    "bits": 0,
                    "corruption": {"model": "bit-flip", "probability": 7.0},
                },
            )

    def test_unknown_adversary_and_advice(self):
        with pytest.raises(ScenarioError, match="adversary"):
            run(protocol={"id": "backoff", "params": {}}, channel="cd", adversary="evil")
        with pytest.raises(ScenarioError, match="advice function"):
            run(
                protocol={"id": "backoff", "params": {}},
                channel="cd",
                advice={"function": "psychic", "bits": 1},
            )


class TestReproducibility:
    def test_spec_json_round_trip_reproduces_identical_result(self):
        """The headline contract: spec -> JSON -> spec -> identical result."""
        original_spec = ScenarioSpec.from_dict(
            spec_dict(
                protocol={"id": "sorted-probing", "params": {"one_shot": False}},
                prediction="truth",
                workload={
                    "kind": "distribution",
                    "params": {"family": "range_uniform_subset", "ranges": [2, 5, 8]},
                },
            )
        )
        first = run_scenario(original_spec)
        reloaded = ScenarioSpec.from_json(original_spec.to_json())
        second = run_scenario(reloaded)
        assert first == second  # elapsed_seconds is excluded from equality
        d1, d2 = first.to_dict(), second.to_dict()
        d1.pop("elapsed_seconds"), d2.pop("elapsed_seconds")
        assert d1 == d2

    def test_player_scenario_reproduces_from_json(self):
        data = spec_dict(
            protocol={"id": "deterministic-scan", "params": {"advice_bits": 3}},
            workload={"kind": "fixed", "params": {"k": 5}},
            advice={
                "function": "min-id-prefix",
                "bits": 3,
                "corruption": {"model": "bit-flip", "probability": 0.2},
            },
            max_rounds=200,
            trials=50,
            n=256,
        )
        first = run_scenario(ScenarioSpec.from_dict(data))
        second = run_scenario(
            ScenarioSpec.from_json(ScenarioSpec.from_dict(data).to_json())
        )
        assert first == second

    def test_shared_rng_matches_direct_estimator_stream(self):
        """run_scenario(spec, rng=...) consumes the stream like the estimator."""
        from repro.analysis.montecarlo import estimate_uniform_rounds
        from repro.channel.channel import without_collision_detection
        from repro.protocols.decay import DecayProtocol

        spec = ScenarioSpec.from_dict(spec_dict())
        shared = np.random.default_rng(123)
        via_scenario = run_scenario(spec, rng=shared)
        direct = estimate_uniform_rounds(
            DecayProtocol(1024),
            8,
            np.random.default_rng(123),
            channel=without_collision_detection(),
            trials=120,
            max_rounds=400,
            batch=None,
        )
        assert via_scenario.rounds == direct.rounds
        assert via_scenario.success == direct.success


class TestResultSerialization:
    def test_result_dict_round_trip(self):
        result = run()
        restored = ScenarioResult.from_dict(result.to_dict())
        assert restored == result

    def test_no_success_result_serializes_nan_as_null(self):
        # An impossible scenario: k=8 participants, decay first-round only.
        result = run(max_rounds=1, trials=20, workload={"kind": "fixed", "params": {"k": 700}})
        if result.any_successes:  # pragma: no cover - distribution guard
            pytest.skip("unexpected success at p=1/2, k=700")
        payload = result.to_dict()
        assert payload["rounds"]["mean"] is None
        restored = ScenarioResult.from_dict(payload)
        assert restored.rounds.count == 0
        assert np.isnan(restored.rounds.mean)

    def test_render_mentions_engine_and_success(self):
        text = run().render()
        assert "engine" in text and "success" in text and "batch-schedule" in text
