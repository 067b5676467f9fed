"""Pins on the JSON of the small value records results are read from.

A solving-round summary, a success proportion, an open run's latency
summary and a channel model each serialize to their fields in order,
with NaN as ``null``.  The exact ``json.dumps`` text is pinned here, so
any change to how a record is written (key order, a renamed field, a
NaN written as something else) shows up as a failed pin, and every
record must read back to the same JSON.
"""

import json
from dataclasses import fields

import pytest

from repro.channel.models import (
    CHANNEL_MODELS,
    AdaptiveAdversary,
    CrashModel,
    NoisyChannel,
    ObliviousJammer,
    ReactiveJammer,
    channel_model_from_dict,
)
from repro.opensys import LatencyStore, LatencySummary
from repro.scenarios import ScenarioResult, ScenarioSpec, run_scenario
from repro.scenarios.open import OpenScenarioSpec, run_open_scenario

SOLVED = {
    "protocol": {"id": "sorted-probing", "params": {"one_shot": False}},
    "prediction": "truth",
    "workload": {
        "kind": "distribution",
        "params": {"family": "range_uniform_subset", "ranges": [2, 4, 6, 8]},
    },
    "channel": "nocd",
    "n": 1024,
    "trials": 200,
    "max_rounds": 512,
    "seed": 2021,
}

# 64 decay contenders in one round: no trial solves, so no rounds sample.
UNSOLVED = {
    "protocol": {"id": "decay", "params": {}},
    "workload": {"kind": "fixed", "params": {"k": 64}},
    "channel": "nocd",
    "n": 1024,
    "trials": 50,
    "max_rounds": 1,
    "seed": 7,
}

RETRY_SHED = {
    "protocol": {"id": "decay", "params": {}},
    "arrivals": {"family": "poisson", "params": {"rate": 0.45}},
    "channel": "nocd",
    "n": 64,
    "trials": 8,
    "rounds": 128,
    "warmup": 16,
    "capacity": 16,
    "timeout": 24,
    "retry": {"kind": "backoff", "params": {"budget": 2}},
    "admission": {"kind": "shed", "params": {"threshold": 0.5}},
    "seed": 2021,
}

RESULT_PINS = [
    (
        SOLVED,
        '{"count": 200, "mean": 6.145, "std": 5.7975887380771844, '
        '"minimum": 1.0, "maximum": 37.0, "median": 4.0, "p90": 13.0}',
        '{"successes": 200, "trials": 200}',
    ),
    (
        UNSOLVED,
        '{"count": 0, "mean": null, "std": null, "minimum": null, '
        '"maximum": null, "median": null, "p90": null}',
        '{"successes": 0, "trials": 50}',
    ),
]

EMPTY_LATENCY = (
    '{"completed": 0, "mean": null, "p50": null, "p90": null, "p99": null, '
    '"maximum": null, "throughput": null, "arrivals": 0, "dropped": 0, '
    '"timed_out": 0, "in_flight": 0, "round_slots": 0, "attempts": 0, '
    '"retried": 0, "abandoned": 0, "in_orbit": 0}'
)

RETRY_SHED_LATENCY = (
    '{"completed": 170, "mean": 16.705882352941178, "p50": 11.0, '
    '"p90": 39.0, "p99": 63.0, "maximum": 64.0, '
    '"throughput": 0.18973214285714285, "arrivals": 499, "dropped": 0, '
    '"timed_out": 0, "in_flight": 93, "round_slots": 896, '
    '"attempts": 1036, "retried": 546, "abandoned": 179, "in_orbit": 9}'
)

#: One model per registry entry at its defaults (required fields set),
#: then one with every parameter set.
MODEL_PINS = [
    (
        ObliviousJammer(budget=3),
        '{"name": "jam-oblivious", "params": {"budget": 3, "start": 1, "period": 1}}',
    ),
    (
        ObliviousJammer(budget=3, start=5, period=2),
        '{"name": "jam-oblivious", "params": {"budget": 3, "start": 5, "period": 2}}',
    ),
    (
        ReactiveJammer(budget=2),
        '{"name": "jam-reactive", "params": {"budget": 2, "quiet_streak": 1}}',
    ),
    (
        ReactiveJammer(budget=2, quiet_streak=3),
        '{"name": "jam-reactive", "params": {"budget": 2, "quiet_streak": 3}}',
    ),
    (
        AdaptiveAdversary(budget=4),
        '{"name": "jam-adaptive", "params": {"budget": 4, "strategy": "greedy", '
        '"patience": 1, "mode": "back"}}',
    ),
    (
        AdaptiveAdversary(budget=4, strategy="streak", patience=2, mode="front"),
        '{"name": "jam-adaptive", "params": {"budget": 4, "strategy": "streak", '
        '"patience": 2, "mode": "front"}}',
    ),
    (
        NoisyChannel(),
        '{"name": "noise", "params": {"silence_to_collision": 0.0, '
        '"collision_to_silence": 0.0, "success_erasure": 0.0}}',
    ),
    (
        NoisyChannel(
            silence_to_collision=0.1, collision_to_silence=0.2, success_erasure=0.3
        ),
        '{"name": "noise", "params": {"silence_to_collision": 0.1, '
        '"collision_to_silence": 0.2, "success_erasure": 0.3}}',
    ),
    (
        CrashModel(probability=0.1),
        '{"name": "crash", "params": {"probability": 0.1, "rejoin_after": null}}',
    ),
    (
        CrashModel(probability=0.25, rejoin_after=4),
        '{"name": "crash", "params": {"probability": 0.25, "rejoin_after": 4}}',
    ),
]


@pytest.mark.parametrize(
    "spec, rounds, success", RESULT_PINS, ids=["solved", "unsolved"]
)
def test_scenario_result_records(spec, rounds, success):
    data = run_scenario(ScenarioSpec.from_dict(spec)).to_dict()
    assert json.dumps(data["rounds"]) == rounds
    assert json.dumps(data["success"]) == success
    # The unsolved summary holds NaN, so compare the dicts, not the objects.
    assert ScenarioResult.from_dict(data).to_dict() == data


def test_latency_summary_of_an_empty_store():
    summary = LatencyStore().summary()
    assert json.dumps(summary.to_dict()) == EMPTY_LATENCY
    assert LatencySummary.from_dict(summary.to_dict()).to_dict() == summary.to_dict()


def test_latency_summary_of_a_retry_shed_run():
    result = run_open_scenario(OpenScenarioSpec.from_dict(RETRY_SHED))
    data = result.summary.to_dict()
    assert json.dumps(data) == RETRY_SHED_LATENCY
    assert LatencySummary.from_dict(data).to_dict() == data
    assert json.dumps(result.to_dict()["summary"]) == RETRY_SHED_LATENCY


def test_latency_summary_without_lifecycle_counters_reads_them_as_zero():
    data = json.loads(RETRY_SHED_LATENCY)
    for counter in ("attempts", "retried", "abandoned", "in_orbit"):
        del data[counter]
    summary = LatencySummary.from_dict(data)
    assert (summary.attempts, summary.retried, summary.abandoned, summary.in_orbit) == (
        0, 0, 0, 0,
    )
    assert summary.completed == 170 and summary.in_flight == 93


def test_every_registered_model_is_pinned_twice():
    assert sorted(model.name for model, _ in MODEL_PINS) == sorted(
        name for name in CHANNEL_MODELS for _ in range(2)
    )


@pytest.mark.parametrize(
    "model, text",
    MODEL_PINS,
    ids=[
        f"{model.name}-{('defaults', 'set')[i % 2]}"
        for i, (model, _) in enumerate(MODEL_PINS)
    ],
)
def test_channel_model_json(model, text):
    assert json.dumps(model.to_dict()) == text
    assert channel_model_from_dict(model.to_dict()).to_dict() == model.to_dict()


@pytest.mark.parametrize(
    "model", [model for model, _ in MODEL_PINS[1::2]], ids=lambda model: model.name
)
def test_model_params_are_its_fields(model):
    assert list(model.params()) == [spec_field.name for spec_field in fields(model)]
