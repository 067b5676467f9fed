"""One gate per spec field: specs built in Python pass the JSON checks.

A spec built by keyword or by ``dataclasses.replace`` must be refused
with exactly the :class:`ScenarioError` that loading the same value
from JSON raises, and a value both paths accept must give equal specs
with equal ``spec_key``\\ s.  NumPy integers become Python ints on
every path, so a spec holding one still serializes and runs.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXAMPLE_PLAYER_SCENARIO, EXAMPLE_SCENARIO
from repro.scenarios import (
    EXAMPLE_OPEN_SCENARIO,
    AdviceSpec,
    ChannelSpec,
    OpenScenarioSpec,
    ScenarioError,
    ScenarioSpec,
    Sweep,
    run_open_scenario,
    run_scenario,
    spec_key,
)

#: A JSON payload per spec class, each field set.
PAYLOADS = {
    ScenarioSpec: EXAMPLE_PLAYER_SCENARIO,
    OpenScenarioSpec: {**EXAMPLE_OPEN_SCENARIO, "timeout": 32},
    AdviceSpec: EXAMPLE_PLAYER_SCENARIO["advice"],
    ChannelSpec: {
        "collision_detection": True,
        "model": {"name": "noise", "params": {"success_erasure": 0.1}},
    },
    Sweep: {"base": EXAMPLE_SCENARIO, "grid": {"trials": [10, 20]}},
}

#: The values ``TestStrictFields`` feeds ``from_dict``, by field type.
INTEGERS = [1.5, 7.0, True, "7", None, [], {}, 2**63]
FLAGS = ["false", 0]
NON_STRINGS = [7, ["prefix"], None]

#: ``(class, field, refused values)``; each value fails the JSON path.
REFUSED = [
    (ScenarioSpec, "n", INTEGERS + [1]),
    (ScenarioSpec, "trials", INTEGERS + [0]),
    (ScenarioSpec, "max_rounds", INTEGERS + [0]),
    (ScenarioSpec, "seed", INTEGERS[:-1] + [-1]),
    (ScenarioSpec, "batch", FLAGS + ["true", 1, []]),
    (ScenarioSpec, "adversary", NON_STRINGS),
    (ScenarioSpec, "name", NON_STRINGS),
    (OpenScenarioSpec, "n", INTEGERS + [1]),
    (OpenScenarioSpec, "trials", INTEGERS + [0]),
    (OpenScenarioSpec, "rounds", INTEGERS + [0, 64]),
    (OpenScenarioSpec, "warmup", INTEGERS + [-1, 512]),
    (OpenScenarioSpec, "capacity", INTEGERS + [0]),
    (OpenScenarioSpec, "timeout", [v for v in INTEGERS if v is not None] + [0]),
    (OpenScenarioSpec, "seed", INTEGERS[:-1] + [-1]),
    (OpenScenarioSpec, "batch", FLAGS + ["no", 1]),
    (OpenScenarioSpec, "name", NON_STRINGS),
    (AdviceSpec, "function", [5, None, ["null"]]),
    (AdviceSpec, "bits", INTEGERS + [-1]),
    (AdviceSpec, "corruption", ["bit-flip", []]),
    (ChannelSpec, "collision_detection", FLAGS + [None, 1.5]),
    (ChannelSpec, "model", ["noise", []]),
    (Sweep, "vary_seed", FLAGS + [None]),
    (Sweep, "grid", [[], "trials", {"trials": 5}, {"trials": []}]),
]

CASES = [
    pytest.param(cls, field, value, id=f"{cls.__name__}.{field}={value!r}")
    for cls, field, values in REFUSED
    for value in values
]


def loaded(cls):
    return cls.from_dict(copy.deepcopy(PAYLOADS[cls]))


def json_message(cls, field, value) -> str:
    payload = copy.deepcopy(PAYLOADS[cls])
    payload[field] = value
    with pytest.raises(ScenarioError) as refused:
        cls.from_dict(payload)
    return str(refused.value)


def by_keyword(cls, field, value):
    spec = loaded(cls)
    kwargs = {f.name: getattr(spec, f.name) for f in dataclasses.fields(cls)}
    kwargs[field] = value
    return cls(**kwargs)


def by_replace(cls, field, value):
    return dataclasses.replace(loaded(cls), **{field: value})


@pytest.mark.parametrize("build", [by_keyword, by_replace])
@pytest.mark.parametrize("cls,field,value", CASES)
def test_python_built_specs_raise_the_json_message(build, cls, field, value):
    message = json_message(cls, field, value)
    with pytest.raises(ScenarioError) as refused:
        build(cls, field, value)
    assert str(refused.value) == message


@pytest.mark.parametrize("build", [by_keyword, by_replace])
@pytest.mark.parametrize(
    "cls,field,kind",
    [
        (ScenarioSpec, "protocol", "ProtocolSpec"),
        (ScenarioSpec, "workload", "WorkloadSpec"),
        (ScenarioSpec, "channel", "ChannelSpec"),
        (ScenarioSpec, "prediction", "PredictionSpec"),
        (ScenarioSpec, "advice", "AdviceSpec"),
        (OpenScenarioSpec, "protocol", "ProtocolSpec"),
        (OpenScenarioSpec, "arrivals", "ArrivalSpec"),
        (OpenScenarioSpec, "channel", "ChannelSpec"),
        (OpenScenarioSpec, "retry", "RetrySpec"),
        (OpenScenarioSpec, "admission", "AdmissionSpec"),
        (Sweep, "base", "ScenarioSpec or OpenScenarioSpec"),
    ],
)
def test_a_dict_is_no_nested_spec(build, cls, field, kind):
    value = loaded(cls).to_dict()[field] or {"source": "truth"}
    what = {
        ScenarioSpec: "scenario spec",
        OpenScenarioSpec: "open scenario spec",
        Sweep: "sweep spec",
    }[cls]
    with pytest.raises(ScenarioError) as refused:
        build(cls, field, value)
    assert str(refused.value).startswith(
        f"{what} field {field!r} must be {kind}, got dict {{"
    )


def test_numpy_integers_become_ints_and_run():
    spec = ScenarioSpec.from_dict({**EXAMPLE_SCENARIO, "trials": 100})
    numpy_spec = dataclasses.replace(spec, n=np.int64(1024), trials=np.int32(100))
    assert type(numpy_spec.n) is int and type(numpy_spec.trials) is int
    assert numpy_spec == spec
    assert spec_key(numpy_spec) == spec_key(spec)
    assert run_scenario(numpy_spec) == run_scenario(spec)


def test_numpy_integers_become_ints_in_open_specs_and_advice():
    spec = OpenScenarioSpec.from_dict({**EXAMPLE_OPEN_SCENARIO, "trials": 4})
    numpy_spec = dataclasses.replace(
        spec, rounds=np.int64(512), capacity=np.uint8(128), seed=np.uint64(2021)
    )
    assert all(
        type(getattr(numpy_spec, name)) is int
        for name in ("rounds", "capacity", "seed")
    )
    assert spec_key(numpy_spec) == spec_key(spec)
    assert run_open_scenario(numpy_spec) == run_open_scenario(spec)
    assert type(AdviceSpec("min-id-prefix", np.int16(3)).bits) is int


#: Example specs and their scalar top-level fields.
EXAMPLES = {
    "scenario": (EXAMPLE_SCENARIO, ScenarioSpec),
    "player": (EXAMPLE_PLAYER_SCENARIO, ScenarioSpec),
    "open": (EXAMPLE_OPEN_SCENARIO, OpenScenarioSpec),
}
SCALARS = {
    ScenarioSpec: [
        "n", "trials", "max_rounds", "seed", "batch", "adversary", "name",
    ],
    OpenScenarioSpec: [
        "n", "trials", "rounds", "warmup", "capacity", "timeout", "seed",
        "batch", "name",
    ],
}
VALUES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-2, max_value=600)
    | st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64)
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.sampled_from(["random", "clustered", "false", "true", "7"])
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
)


def _outcome(build):
    try:
        return build()
    except ScenarioError as error:
        return f"ScenarioError: {error}"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(EXAMPLES)), st.data())
def test_replace_and_from_dict_agree_on_any_scalar(example, data):
    payload, cls = EXAMPLES[example]
    field = data.draw(st.sampled_from(SCALARS[cls]), label="field")
    value = data.draw(VALUES, label="value")
    spec = cls.from_dict(payload)
    replaced = _outcome(lambda: dataclasses.replace(spec, **{field: value}))
    parsed = _outcome(lambda: cls.from_dict({**payload, field: value}))
    assert replaced == parsed
    if not isinstance(parsed, str):
        assert spec_key(replaced) == spec_key(parsed)
