"""The routing table: which engine every registry protocol resolves to.

One case per registry protocol x collision detection x channel setting x
``batch`` request (unset, true, false).  A closed point pins the engine
label :func:`~repro.scenarios.runner.resolve_scenario` records, or the
error class it raises, and whether the fused executor may stack it
(:func:`~repro.scenarios.sweep.fusion_key` is not ``None``).  An open
point, for the ten uniform protocols, pins the engine label
:func:`~repro.scenarios.open.resolve_open_scenario` records, or the error
class it raises.  That is 540 closed and 360 open cases.

Each row lists the six channel settings of :data:`MODELS` in order, each
as three cells for ``batch`` unset / true / false.  Cell codes:

* closed: ``S`` batch-schedule, ``H`` batch-history, ``P`` batch-player,
  ``u`` scalar-uniform, ``p`` scalar-player; a trailing ``+`` marks a
  point with a fusion key;
* open: ``S`` open-schedule, ``H`` open-history, ``s`` open-scalar;
* ``!V`` raises a ``ValueError`` (a ``ScenarioError`` included: it
  subclasses ``ValueError``), ``!S`` raises a ``ScenarioError``.
"""

from __future__ import annotations

import copy

import pytest

from repro.scenarios import (
    EXAMPLE_OPEN_SCENARIO,
    OpenScenarioSpec,
    ScenarioError,
    ScenarioSpec,
    fusion_key,
)
from repro.scenarios.open import resolve_open_scenario
from repro.scenarios.runner import resolve_scenario

#: Registry id -> protocol params of its case.
PROTOCOLS = {
    "decay": {},
    "jiang-zheng": {},
    "willard": {},
    "fixed-probability": {"k_hat": 4},
    "sorted-probing": {"one_shot": False},
    "code-search": {},
    "phased-search": {"phases": [[1, 2], [3]]},
    "truncated-decay": {"advice_bits": 2, "block_index": 1},
    "truncated-willard": {"advice_bits": 2, "block_index": 1},
    "restart": {"inner": {"id": "decay", "params": {"cycle": False}}},
    "backoff": {},
    "deterministic-scan": {"advice_bits": 2},
    "tree-descent": {"advice_bits": 2},
    "uniform-as-player": {"inner": {"id": "willard", "params": {}}},
    "fallback": {
        "primary": {"id": "deterministic-scan", "params": {"advice_bits": 2}},
        "fallback": {"id": "deterministic-scan", "params": {"advice_bits": 0}},
        "budget_rounds": "worst-case",
    },
}

PLAYERS = (
    "backoff", "deterministic-scan", "tree-descent", "uniform-as-player", "fallback",
)
ADVISED = ("deterministic-scan", "tree-descent", "fallback")

#: The channel settings, in row order.
MODELS = {
    "faithful": None,
    "jam-oblivious": {
        "name": "jam-oblivious",
        "params": {"budget": 2, "start": 1, "period": 1},
    },
    "jam-adaptive": {
        "name": "jam-adaptive",
        "params": {"budget": 2, "strategy": "greedy"},
    },
    "noise": {"name": "noise", "params": {"success_erasure": 0.2}},
    "crash-rejoin-0": {
        "name": "crash",
        "params": {"probability": 0.1, "rejoin_after": 0},
    },
    "crash-rejoin-3": {
        "name": "crash",
        "params": {"probability": 0.1, "rejoin_after": 3},
    },
}

BATCH = (None, True, False)

PREDICTION = {
    "source": "distribution",
    "params": {"family": "range_uniform_subset", "ranges": [2, 4]},
}

#: (protocol, "nocd" | "cd") -> closed cells.
CLOSED = {
    ("decay", "nocd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("decay", "cd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("jiang-zheng", "nocd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("jiang-zheng", "cd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("willard", "nocd"): "H+ H+ u | H+ H+ u | H H u | H+ H+ u | H+ H+ u | H+ H+ u",
    ("willard", "cd"): "H+ H+ u | H+ H+ u | H H u | H+ H+ u | H+ H+ u | H+ H+ u",
    ("fixed-probability", "nocd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("fixed-probability", "cd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("sorted-probing", "nocd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("sorted-probing", "cd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("code-search", "nocd"): "H+ H+ u | H+ H+ u | H H u | H+ H+ u | H+ H+ u | H+ H+ u",
    ("code-search", "cd"): "H+ H+ u | H+ H+ u | H H u | H+ H+ u | H+ H+ u | H+ H+ u",
    ("phased-search", "nocd"): "H+ H+ u | H+ H+ u | H H u | H+ H+ u | H+ H+ u | H+ H+ u",
    ("phased-search", "cd"): "H+ H+ u | H+ H+ u | H H u | H+ H+ u | H+ H+ u | H+ H+ u",
    ("truncated-decay", "nocd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("truncated-decay", "cd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("truncated-willard", "nocd"): "H+ H+ u | H+ H+ u | H H u | H+ H+ u | H+ H+ u | H+ H+ u",
    ("truncated-willard", "cd"): "H+ H+ u | H+ H+ u | H H u | H+ H+ u | H+ H+ u | H+ H+ u",
    ("restart", "nocd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("restart", "cd"): "S+ S+ u | S+ S+ u | S S u | S+ S+ u | S+ S+ u | S+ S+ u",
    ("backoff", "nocd"): "P P p | P P p | P P p | P P p | P P p | p !V p",
    ("backoff", "cd"): "P P p | P P p | P P p | P P p | P P p | p !V p",
    ("deterministic-scan", "nocd"): "P+ P+ p | P+ P+ p | P P p | P P p | P P p | p !V p",
    ("deterministic-scan", "cd"): "P+ P+ p | P+ P+ p | P P p | P P p | P P p | p !V p",
    ("tree-descent", "nocd"): "P+ P+ p | P+ P+ p | P P p | P P p | P P p | p !V p",
    ("tree-descent", "cd"): "P+ P+ p | P+ P+ p | P P p | P P p | P P p | p !V p",
    ("uniform-as-player", "nocd"): "P P p | P P p | P P p | P P p | P P p | p !V p",
    ("uniform-as-player", "cd"): "P P p | P P p | P P p | P P p | P P p | p !V p",
    ("fallback", "nocd"): "P+ P+ p | P+ P+ p | P P p | P P p | P P p | p !V p",
    ("fallback", "cd"): "P+ P+ p | P+ P+ p | P P p | P P p | P P p | p !V p",
}

#: (uniform protocol, "nocd" | "cd") -> open cells.
OPEN = {
    ("decay", "nocd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
    ("decay", "cd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
    ("jiang-zheng", "nocd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
    ("jiang-zheng", "cd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
    ("willard", "nocd"): "H H s | H H s | H H s | H H s | H H s | !S !S !S",
    ("willard", "cd"): "H H s | H H s | H H s | H H s | H H s | !S !S !S",
    ("fixed-probability", "nocd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
    ("fixed-probability", "cd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
    ("sorted-probing", "nocd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
    ("sorted-probing", "cd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
    ("code-search", "nocd"): "H H s | H H s | H H s | H H s | H H s | !S !S !S",
    ("code-search", "cd"): "H H s | H H s | H H s | H H s | H H s | !S !S !S",
    ("phased-search", "nocd"): "H H s | H H s | H H s | H H s | H H s | !S !S !S",
    ("phased-search", "cd"): "H H s | H H s | H H s | H H s | H H s | !S !S !S",
    ("truncated-decay", "nocd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
    ("truncated-decay", "cd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
    ("truncated-willard", "nocd"): "H H s | H H s | H H s | H H s | H H s | !S !S !S",
    ("truncated-willard", "cd"): "H H s | H H s | H H s | H H s | H H s | !S !S !S",
    ("restart", "nocd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
    ("restart", "cd"): "S S s | S S s | S S s | S S s | S S s | !S !S !S",
}

CLOSED_CODES = {
    "batch-schedule": "S",
    "batch-history": "H",
    "batch-player": "P",
    "scalar-uniform": "u",
    "scalar-player": "p",
}
OPEN_CODES = {"open-schedule": "S", "open-history": "H", "open-scalar": "s"}


def expected_cells(row: str) -> list[str]:
    return row.replace("|", " ").split()


def channel(collision_detection: bool, model: dict | None) -> dict:
    data = {"collision_detection": collision_detection}
    if model is not None:
        data["model"] = model
    return data


def closed_spec(protocol: str, cd: bool, model: dict | None, batch) -> dict:
    data = {
        "protocol": {"id": protocol, "params": PROTOCOLS[protocol]},
        "channel": channel(cd, model),
        "n": 64,
        "trials": 8,
        "max_rounds": 32,
        "seed": 1,
        "batch": batch,
    }
    if protocol in PLAYERS:
        data["workload"] = {"kind": "fixed", "params": {"k": 4}}
        if protocol in ADVISED:
            data["advice"] = {"function": "min-id-prefix", "bits": 2}
    else:
        data["workload"] = {"kind": "distribution", "params": PREDICTION["params"]}
        data["prediction"] = PREDICTION
    return data


def open_spec(protocol: str, cd: bool, model: dict | None, batch) -> dict:
    data = copy.deepcopy(EXAMPLE_OPEN_SCENARIO)
    data.update(
        protocol={"id": protocol, "params": PROTOCOLS[protocol]},
        channel=channel(cd, model),
        prediction=PREDICTION,
        batch=batch,
    )
    return data


def error_cell(error: ValueError) -> str:
    return "!S" if isinstance(error, ScenarioError) else "!V"


def closed_cell(data: dict) -> str:
    try:
        resolved = resolve_scenario(ScenarioSpec.from_dict(data))
    except ValueError as error:
        return error_cell(error)
    fused = "+" if fusion_key(resolved) is not None else ""
    return CLOSED_CODES[resolved.engine] + fused


def open_cell(data: dict) -> str:
    try:
        resolved = resolve_open_scenario(OpenScenarioSpec.from_dict(data))
    except ValueError as error:
        return error_cell(error)
    return OPEN_CODES[resolved.engine]


def mismatches(cell, build, protocol: str, cd: str, row: str) -> list:
    """``(channel setting, batch, expected, observed)`` per differing cell."""
    cases = [(name, batch) for name in MODELS for batch in BATCH]
    found = []
    for (name, batch), expected in zip(cases, expected_cells(row)):
        got = cell(build(protocol, cd == "cd", MODELS[name], batch))
        if got != expected and not (expected == "!V" and got == "!S"):
            found.append((name, batch, expected, got))
    return found


def test_the_table_covers_the_grid():
    uniform = [protocol for protocol in PROTOCOLS if protocol not in PLAYERS]
    assert set(CLOSED) == {(p, cd) for p in PROTOCOLS for cd in ("nocd", "cd")}
    assert set(OPEN) == {(p, cd) for p in uniform for cd in ("nocd", "cd")}
    width = len(MODELS) * len(BATCH)
    cells = [expected_cells(row) for row in (*CLOSED.values(), *OPEN.values())]
    assert {len(row) for row in cells} == {width}
    assert sum(map(len, cells)) == 900


@pytest.mark.parametrize("protocol,cd", sorted(CLOSED))
def test_closed_route(protocol, cd):
    row = CLOSED[(protocol, cd)]
    assert mismatches(closed_cell, closed_spec, protocol, cd, row) == []


@pytest.mark.parametrize("protocol,cd", sorted(OPEN))
def test_open_route(protocol, cd):
    row = OPEN[(protocol, cd)]
    assert mismatches(open_cell, open_spec, protocol, cd, row) == []
