"""Nested params are strict: a mistyped value fails naming it, never coerced.

Each case is a well-formed example spec with one nested value of the
wrong type - a string or number where a flag belongs, a bool or string
where a number belongs, a fractional count - that the builders used to
coerce silently (``"false"`` ran the one-shot variant, ``2.7`` ran two
repetitions).  Every one must now raise :class:`ScenarioError` from
parsing or resolution, naming the offending parameter.
"""

import copy

import pytest

from repro.cli import EXAMPLE_SCENARIO
from repro.cli import EXAMPLE_PLAYER_SCENARIO
from repro.scenarios import (
    EXAMPLE_OPEN_SCENARIO,
    OpenScenarioSpec,
    ScenarioError,
    ScenarioSpec,
)
from repro.scenarios.open import resolve_open_scenario
from repro.scenarios.runner import resolve_scenario


def closed(protocol: dict, channel="nocd", **fields) -> dict:
    data = copy.deepcopy(EXAMPLE_SCENARIO)
    data.update(protocol=protocol, channel=channel, **fields)
    return data


def open_with(**fields) -> dict:
    data = copy.deepcopy(EXAMPLE_OPEN_SCENARIO)
    data.update(fields)
    return data


def noise(value) -> dict:
    return closed(
        {"id": "decay"},
        channel={
            "collision_detection": False,
            "model": {"name": "noise", "params": {"success_erasure": value}},
        },
        prediction=None,
    )


def rejoining_crash_batch(protocol: str, params: dict, cd: bool) -> dict:
    """A player point insisting on ``batch`` under a crash that rejoins.

    No engine runs it, and resolution must say so as a ScenarioError
    naming ``'batch'``, like every malformed value in this module.
    """
    data = copy.deepcopy(EXAMPLE_PLAYER_SCENARIO)
    data.update(
        protocol={"id": protocol, "params": params},
        batch=True,
        channel={
            "collision_detection": cd,
            "model": {
                "name": "crash",
                "params": {"probability": 0.1, "rejoin_after": 3},
            },
        },
    )
    if protocol in ("backoff", "uniform-as-player"):  # no advice bits
        del data["advice"]
    return data


#: The player protocols, with params their example point builds from.
PLAYER_PARAMS = {
    "backoff": {},
    "deterministic-scan": {"advice_bits": 4},
    "tree-descent": {"advice_bits": 4},
    "uniform-as-player": {"inner": {"id": "decay", "params": {}}},
    "fallback": {
        "primary": {"id": "tree-descent", "params": {"advice_bits": 4}},
        "fallback": {"id": "backoff", "params": {}},
        "budget_rounds": 64,
    },
}


def bursty(**params) -> dict:
    rates = {
        "calm_rate": 0.004,
        "burst_rate": 0.25,
        "burst_arrival": 0.05,
        "burst_departure": 0.2,
    }
    return closed(
        {"id": "decay"},
        prediction=None,
        workload={"kind": "bursty", "params": {**rates, **params}},
    )


CLOSED = {
    "one_shot 'false'": (
        closed({"id": "sorted-probing", "params": {"one_shot": "false"}}),
        "'one_shot' must be true or false",
    ),
    "cycle 'false'": (
        closed({"id": "decay", "params": {"cycle": "false"}}, prediction=None),
        "'cycle' must be true or false",
    ),
    "repetitions 3.9": (
        closed({"id": "willard", "params": {"repetitions": 3.9}}, "cd"),
        "'repetitions' must be an integer, got float 3.9",
    ),
    "repetitions 2.7": (
        closed({"id": "code-search", "params": {"repetitions": 2.7}}, "cd"),
        "'repetitions' must be an integer, got float 2.7",
    ),
    "repetitions true": (
        closed({"id": "willard", "params": {"repetitions": True}}, "cd"),
        "'repetitions' must be an integer, got bool True",
    ),
    "noise success_erasure true": (
        noise(True),
        "success_erasure must be a number, got bool True",
    ),
    "noise success_erasure '0.5'": (
        noise("0.5"),
        "success_erasure must be a number, got str '0.5'",
    ),
    "list-valued channel-model name": (
        closed(
            {"id": "decay"},
            channel={"collision_detection": True, "model": {"name": ["noise"]}},
            prediction=None,
        ),
        r"unknown channel model \['noise'\]; known: crash",
    ),
    "list-valued adaptive strategy": (
        closed(
            {"id": "decay"},
            channel={
                "collision_detection": True,
                "model": {
                    "name": "jam-adaptive",
                    "params": {"budget": 2, "strategy": ["greedy"]},
                },
            },
            prediction=None,
        ),
        r"unknown adaptive strategy \['greedy'\]; known: greedy",
    ),
    "protocol id 5": (
        closed({"id": 5}),
        "protocol spec 'id' must be a string, got int 5",
    ),
    **{
        f"{protocol} batch true, rejoining crash, cd {cd}": (
            rejoining_crash_batch(protocol, params, cd),
            r"'batch' is true\): batch=True but channel model 'crash' only "
            "runs on the scalar engine",
        )
        for protocol, params in PLAYER_PARAMS.items()
        for cd in (False, True)
    },
    "bursty start_in_burst 'false'": (
        bursty(start_in_burst="false"),
        "'start_in_burst' must be true or false, got str 'false'",
    ),
    "bursty calm_rate true": (
        bursty(calm_rate=True),
        "'calm_rate' must be a number, got bool True",
    ),
    "bursty calm_rate '0.01'": (
        bursty(calm_rate="0.01"),
        "'calm_rate' must be a number, got str '0.01'",
    ),
    "bursty unknown key": (
        bursty(start_in_bursts=True),
        r"unknown parameter\(s\) for bursty workload: start_in_bursts",
    ),
}

OPEN = {
    "zipf-hotspot max_batch 7.9": (
        {"arrivals": {"family": "zipf-hotspot", "params": {"rate": 0.1, "max_batch": 7.9}}},
        "'max_batch' must be an integer, got float 7.9",
    ),
    "bursty start_in_burst 'no'": (
        {
            "arrivals": {
                "family": "bursty",
                "params": {"devices": 32, "thin": 0.1, "start_in_burst": "no"},
            }
        },
        "'start_in_burst' must be true or false, got str 'no'",
    ),
    "poisson rate '0.3'": (
        {"arrivals": {"family": "poisson", "params": {"rate": "0.3"}}},
        "'rate' must be a number, got str '0.3'",
    ),
    "backoff cap '64'": (
        {"retry": {"kind": "backoff", "params": {"cap": "64"}}},
        "'cap' must be an integer, got str '64'",
    ),
    "backoff jitter true": (
        {"retry": {"kind": "backoff", "params": {"jitter": True}}},
        "'jitter' must be an integer, got bool True",
    ),
    "immediate budget 2.5": (
        {"retry": {"kind": "immediate", "params": {"budget": 2.5}}},
        "'budget' must be an integer, got float 2.5",
    ),
    "token-bucket rate '1'": (
        {"admission": {"kind": "token-bucket", "params": {"rate": "1"}}},
        "'rate' must be a number, got str '1'",
    ),
}


@pytest.mark.parametrize("case", sorted(CLOSED))
def test_closed_spec_refuses(case):
    data, message = CLOSED[case]
    with pytest.raises(ScenarioError, match=message):
        resolve_scenario(ScenarioSpec.from_dict(data))


@pytest.mark.parametrize("case", sorted(OPEN))
def test_open_spec_refuses(case):
    fields, message = OPEN[case]
    with pytest.raises(ScenarioError, match=message):
        resolve_open_scenario(OpenScenarioSpec.from_dict(open_with(**fields)))


def test_the_well_formed_values_still_build():
    resolve_scenario(ScenarioSpec.from_dict(EXAMPLE_SCENARIO))
    resolve_scenario(
        ScenarioSpec.from_dict(
            closed({"id": "willard", "params": {"repetitions": 3.0}}, "cd")
        )
    )
    resolve_open_scenario(
        OpenScenarioSpec.from_dict(
            open_with(
                arrivals={"family": "poisson", "params": {"rate": 1}},
                retry={"kind": "backoff", "params": {"cap": 64, "jitter": 2}},
            )
        )
    )
