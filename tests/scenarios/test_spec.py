"""Tests for the declarative spec layer: construction, JSON, overrides."""

import numpy as np
import pytest

from repro.scenarios.spec import (
    AdviceSpec,
    ChannelSpec,
    PredictionSpec,
    ProtocolSpec,
    ScenarioError,
    ScenarioSpec,
    WorkloadSpec,
)


def make_spec(**overrides) -> ScenarioSpec:
    base = dict(
        protocol=ProtocolSpec("decay"),
        workload=WorkloadSpec("fixed", {"k": 8}),
        channel=ChannelSpec(collision_detection=False),
        n=1024,
        trials=100,
        max_rounds=256,
        seed=11,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def spec_dict(**overrides) -> dict:
    data = make_spec().to_dict()
    data.update(overrides)
    return data


def sweep_from(fields: dict):
    from repro.scenarios import Sweep

    return Sweep.from_dict({"base": spec_dict(), **fields})


class TestSubSpecs:
    def test_protocol_shorthand(self):
        assert ProtocolSpec.from_dict("decay") == ProtocolSpec("decay")

    def test_protocol_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown protocol spec"):
            ProtocolSpec.from_dict({"id": "decay", "prams": {}})

    def test_channel_shorthands(self):
        assert ChannelSpec.from_dict("cd").collision_detection
        assert not ChannelSpec.from_dict("nocd").collision_detection
        assert not ChannelSpec.from_dict("no-cd").collision_detection
        with pytest.raises(ScenarioError, match="shorthand"):
            ChannelSpec.from_dict("loud")

    def test_prediction_shorthand(self):
        assert PredictionSpec.from_dict("truth") == PredictionSpec("truth")

    def test_advice_negative_bits_rejected(self):
        with pytest.raises(ScenarioError, match="bits"):
            AdviceSpec(function="null", bits=-1)


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ScenarioError, match="trials"):
            make_spec(trials=0)
        with pytest.raises(ScenarioError, match="max_rounds"):
            make_spec(max_rounds=0)
        with pytest.raises(ScenarioError, match="n must"):
            make_spec(n=1)

    def test_json_round_trip_is_identity(self):
        spec = make_spec(
            prediction=PredictionSpec("distribution", {"family": "geometric"}),
            advice=AdviceSpec(
                "min-id-prefix", 3, {"model": "bit-flip", "probability": 0.1}
            ),
            batch=False,
            name="rt",
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_from_dict_requires_core_fields(self):
        with pytest.raises(ScenarioError, match="'workload'"):
            ScenarioSpec.from_dict(
                {
                    "protocol": "decay",
                    "channel": "nocd",
                    "n": 64,
                    "trials": 10,
                    "max_rounds": 8,
                }
            )

    def test_from_dict_rejects_unknown_fields(self):
        data = make_spec().to_dict()
        data["trails"] = 5
        with pytest.raises(ScenarioError, match="'trails'"):
            ScenarioSpec.from_dict(data)

    def test_invalid_json_reports_cleanly(self):
        with pytest.raises(ScenarioError, match="invalid scenario JSON"):
            ScenarioSpec.from_json("{nope")

    def test_override_dotted_paths(self):
        spec = make_spec()
        derived = spec.override(
            {"trials": 500, "workload.params.k": 3, "protocol.params.cycle": False}
        )
        assert derived.trials == 500
        assert derived.workload.params["k"] == 3
        assert derived.protocol.params == {"cycle": False}
        # the original is untouched (specs are immutable values)
        assert spec.trials == 100 and spec.protocol.params == {}

    def test_override_creates_intermediate_mappings(self):
        derived = make_spec().override({"prediction.source": "truth"})
        assert derived.prediction == PredictionSpec("truth")

    def test_override_revalidates(self):
        with pytest.raises(ScenarioError, match="trials"):
            make_spec().override({"trials": 0})

    def test_label(self):
        assert make_spec().label() == "decay/fixed"
        assert make_spec(name="x").label() == "x"


class TestChannelModelSpec:
    """The channel-model slot: eager validation, resolution, round-trip."""

    def test_shorthand_keeps_model_none(self):
        assert ChannelSpec.from_dict("cd").model is None
        assert ChannelSpec.from_dict("nocd").build_model() is None

    def test_model_round_trips_through_dicts(self):
        data = {
            "collision_detection": True,
            "model": {"name": "jam-oblivious", "params": {"budget": 4}},
        }
        spec = ChannelSpec.from_dict(data)
        assert spec.to_dict() == data
        assert ChannelSpec.from_dict(spec.to_dict()) == spec

    def test_model_omitted_from_dict_when_absent(self):
        assert ChannelSpec(collision_detection=True).to_dict() == {
            "collision_detection": True
        }

    def test_build_model_resolves_the_registry_model(self):
        from repro.channel import NoisyChannel

        spec = ChannelSpec.from_dict(
            {
                "collision_detection": False,
                "model": {"name": "noise", "params": {"success_erasure": 0.2}},
            }
        )
        assert spec.build_model() == NoisyChannel(success_erasure=0.2)

    def test_scenario_json_round_trip_with_model(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "jammed",
                "protocol": {"id": "decay", "params": {}},
                "workload": {"kind": "fixed", "params": {"k": 4}},
                "channel": {
                    "collision_detection": False,
                    "model": {"name": "jam-reactive",
                              "params": {"budget": 2, "quiet_streak": 3}},
                },
                "n": 1024,
                "trials": 50,
                "max_rounds": 128,
                "seed": 7,
            }
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize(
        "model,complaint",
        [
            ({"name": "nope"}, "unknown channel model"),
            ({"name": "noise", "params": {"bogus": 1}}, "unknown parameter"),
            ({"name": "jam-oblivious", "params": {"budget": -1}}, "budget"),
            ({"name": "noise", "params": {"success_erasure": 1.5}},
             r"\[0, 1\]"),
            ("noise", "mapping"),
            ({"name": "crash", "extra": True}, "allowed: name, params"),
        ],
    )
    def test_malformed_models_fail_at_parse_time(self, model, complaint):
        """Validation is eager: a bad model spec raises ScenarioError
        before any point of a sweep runs."""
        with pytest.raises(ScenarioError, match=complaint):
            ChannelSpec.from_dict(
                {"collision_detection": True, "model": model}
            )

    def test_dotted_override_reaches_model_params(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "jammed",
                "protocol": {"id": "decay", "params": {}},
                "workload": {"kind": "fixed", "params": {"k": 4}},
                "channel": {
                    "collision_detection": False,
                    "model": {"name": "jam-oblivious", "params": {"budget": 0}},
                },
                "n": 1024,
                "trials": 50,
                "max_rounds": 128,
                "seed": 7,
            }
        )
        bumped = spec.override({"channel.model.params.budget": 9})
        assert bumped.channel.model["params"]["budget"] == 9
        assert spec.channel.model["params"]["budget"] == 0  # original intact


def corrupted(**corruption) -> dict:
    """An advice spec payload whose bit-flip corruption is overridden."""
    return {
        "function": "min-id-prefix",
        "bits": 2,
        "corruption": {"model": "bit-flip", "probability": 0.1, **corruption},
    }


class TestStrictFields:
    """Integer and boolean fields are checked, never coerced or leaked."""

    @pytest.mark.parametrize("value", [1.5, 7.0, True, "7", None, [], {}])
    @pytest.mark.parametrize("field", ["n", "trials", "max_rounds", "seed"])
    def test_non_integers_are_refused(self, field, value):
        with pytest.raises(ScenarioError, match=f"'{field}' must be an integer"):
            ScenarioSpec.from_dict(spec_dict(**{field: value}))

    @pytest.mark.parametrize("field", ["n", "trials", "max_rounds"])
    def test_counts_must_fit_int64(self, field):
        with pytest.raises(ScenarioError, match=f"'{field}' must fit in int64"):
            ScenarioSpec.from_dict(spec_dict(**{field: 2**63}))
        widest = ScenarioSpec.from_dict(spec_dict(**{field: 2**63 - 1}))
        assert getattr(widest, field) == 2**63 - 1

    def test_negative_seed_is_refused(self):
        with pytest.raises(ScenarioError, match="'seed' must be >= 0"):
            ScenarioSpec.from_dict(spec_dict(seed=-1))
        assert ScenarioSpec.from_dict(spec_dict(seed=0)).seed == 0

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, []])
    def test_batch_takes_only_true_false_or_null(self, value):
        with pytest.raises(ScenarioError, match="'batch' must be true, false or null"):
            ScenarioSpec.from_dict(spec_dict(batch=value))

    @pytest.mark.parametrize("value", [True, False, None])
    def test_batch_booleans_and_null_load(self, value):
        assert ScenarioSpec.from_dict(spec_dict(batch=value)).batch is value

    @pytest.mark.parametrize(
        "load,payload,complaint",
        [
            (ChannelSpec.from_dict, {"collision_detection": "false"},
             "'collision_detection' must be true or false"),
            (ChannelSpec.from_dict, {"collision_detection": 0},
             "'collision_detection' must be true or false"),
            (ChannelSpec.from_dict, {"collision_detection": None},
             "'collision_detection' must be true or false"),
            (AdviceSpec.from_dict, {"function": "null", "bits": 2.9},
             "'bits' must be an integer"),
            (AdviceSpec.from_dict, {"function": "null", "bits": True},
             "'bits' must be an integer"),
            (AdviceSpec.from_dict, {"function": "null", "bits": "2"},
             "'bits' must be an integer"),
            (sweep_from, {"vary_seed": "false"},
             "'vary_seed' must be true or false"),
            (sweep_from, {"vary_seed": None},
             "'vary_seed' must be true or false"),
            (AdviceSpec.from_dict, {"function": 5},
             "'function' must be a string, got int 5"),
            (ScenarioSpec.from_dict, spec_dict(adversary=["prefix"]),
             "'adversary' must be a string"),
            (ScenarioSpec.from_dict, spec_dict(name=7),
             "'name' must be a string"),
            (AdviceSpec.from_dict, {"function": "psychic"},
             "unknown advice function 'psychic'"),
            (AdviceSpec.from_dict, corrupted(probability="0.1"),
             "advice corruption parameter 'probability' must be a number, "
             "got str '0.1'"),
            (AdviceSpec.from_dict, corrupted(probability=True),
             "'probability' must be a number, got bool True"),
            (AdviceSpec.from_dict, corrupted(probability=None),
             "'probability' must be a number, got NoneType"),
            (AdviceSpec.from_dict, corrupted(probability=1.5),
             r"advice corruption: flip probability must be in \[0, 1\]"),
            (AdviceSpec.from_dict, corrupted(model="adversarial", probability=-1),
             r"advice corruption: error probability must be in \[0, 1\]"),
            (AdviceSpec.from_dict, corrupted(model=["bit-flip"]),
             "'model' must be a string"),
            (AdviceSpec.from_dict, corrupted(model="typo"),
             "unknown advice corruption model 'typo'"),
            (AdviceSpec.from_dict, corrupted(extra=1),
             "unknown parameter\\(s\\) for advice corruption: extra"),
            (AdviceSpec.from_dict, {"function": "null", "corruption": {}},
             "advice corruption requires parameter 'model'"),
            (ScenarioSpec.from_dict,
             spec_dict(advice=corrupted(probability="0.1")),
             "'probability' must be a number"),
        ],
    )
    def test_nested_fields_are_checked_not_coerced(self, load, payload, complaint):
        with pytest.raises(ScenarioError, match=complaint):
            load(payload)

    def test_numpy_integers_load_as_python_ints(self):
        spec = ScenarioSpec.from_dict(
            spec_dict(
                n=np.int64(1024),
                trials=np.int32(100),
                max_rounds=np.uint16(256),
                seed=np.uint64(2**64 - 1),
            )
        )
        assert spec == make_spec(seed=2**64 - 1)
        assert all(
            type(getattr(spec, field)) is int
            for field in ("n", "trials", "max_rounds", "seed")
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_override_is_checked_too(self):
        with pytest.raises(ScenarioError, match="'trials' must be an integer"):
            make_spec().override({"trials": "7"})
