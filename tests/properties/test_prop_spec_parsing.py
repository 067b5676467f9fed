"""Property-based tests (hypothesis): malformed spec JSON fails as ``ScenarioError``.

Each example payload has one value - at any depth, including protocol,
arrival, policy and channel-model params - replaced by arbitrary JSON,
or one arbitrary key added to one of its mappings.  Parsing must then
either raise :class:`ScenarioError` or return an object that survives a
``from_dict(to_dict())`` round trip with the same ``spec_key``; never a
``TypeError``, ``KeyError`` or silently different spec.  With numbers
drawn at small magnitudes the same holds one layer further in, for
resolution (which consumes no randomness) and sweep expansion.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXAMPLE_PLAYER_SCENARIO, EXAMPLE_SCENARIO
from repro.scenarios import (
    EXAMPLE_ADVERSARY_SWEEP,
    EXAMPLE_CD_SWEEP,
    EXAMPLE_FAULT_PLAN,
    EXAMPLE_OPEN_RETRY_SWEEP,
    EXAMPLE_OPEN_SCENARIO,
    FaultPlan,
    OpenScenarioSpec,
    ScenarioError,
    ScenarioSpec,
    Sweep,
    spec_key,
)
from repro.scenarios.open import resolve_open_scenario
from repro.scenarios.runner import resolve_scenario

EXAMPLES = {
    "scenario": (EXAMPLE_SCENARIO, ScenarioSpec),
    "player": (EXAMPLE_PLAYER_SCENARIO, ScenarioSpec),
    "cd-sweep": (EXAMPLE_CD_SWEEP, Sweep),
    "adversary-sweep": (EXAMPLE_ADVERSARY_SWEEP, Sweep),
    "open": (EXAMPLE_OPEN_SCENARIO, OpenScenarioSpec),
    "open-retry-sweep": (EXAMPLE_OPEN_RETRY_SWEEP, Sweep),
    "fault-plan": (EXAMPLE_FAULT_PLAN, FaultPlan),
}

#: Names the parsers know, so a replacement often reaches a real builder
#: with the wrong parameters instead of stopping at the name lookup.
NAMES = [
    "decay", "willard", "sorted-probing", "code-search", "fixed-probability",
    "backoff", "fallback", "restart", "fixed", "distribution", "trace",
    "poisson", "zipf-hotspot", "bursty", "give-up", "immediate", "shed",
    "token-bucket", "capacity", "truth", "noise", "jam-adaptive",
    "jam-oblivious", "crash", "greedy", "scheduler", "cd", "nocd", "random",
    "range_uniform_subset", "perturbed", "id", "params", "family", "kind",
    "name", "rate", "budget", "k",
]


def _paths(node, prefix=()):
    """Every path into ``node``: the root, each mapping key, each list slot."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


def _mapping_paths(node):
    return [path for path in _paths(node) if isinstance(_at(node, path), dict)]


def _at(node, path):
    for step in path:
        node = node[step]
    return node


def _json(integers, floats):
    scalars = (
        st.none()
        | st.booleans()
        | integers
        | floats
        | st.text(max_size=6)
        | st.sampled_from(NAMES)
    )
    keys = st.text(max_size=6) | st.sampled_from(NAMES)
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(keys, children, max_size=3),
        max_leaves=6,
    )


ANY_JSON = _json(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
SMALL_JSON = _json(
    st.integers(min_value=-3, max_value=24),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


@st.composite
def malformed(draw, values):
    """``(name, cls, payload)``: one example with one value replaced or added."""
    name = draw(st.sampled_from(sorted(EXAMPLES)))
    example, cls = EXAMPLES[name]
    payload = copy.deepcopy(example)
    value = draw(values)
    if draw(st.booleans()):
        path = draw(st.sampled_from(list(_paths(payload))))
    else:
        path = draw(st.sampled_from(_mapping_paths(payload)))
        path += (draw(st.text(max_size=6) | st.sampled_from(NAMES)),)
    if not path:
        return name, cls, value
    _at(payload, path[:-1])[path[-1]] = value
    return name, cls, payload


def _parse(cls, payload):
    """The parsed object after checking its round trip, or None if refused."""
    try:
        parsed = cls.from_dict(payload)
    except ScenarioError:
        return None
    again = cls.from_dict(parsed.to_dict())
    assert again == parsed
    assert again.to_dict() == parsed.to_dict()
    if isinstance(parsed, Sweep):
        assert spec_key(again.base) == spec_key(parsed.base)
    elif not isinstance(parsed, FaultPlan):
        assert spec_key(again) == spec_key(parsed)
    return parsed


@settings(max_examples=400, deadline=None)
@given(malformed(ANY_JSON))
def test_parsing_refuses_or_round_trips(case):
    _, cls, payload = case
    _parse(cls, payload)


@settings(max_examples=150, deadline=None)
@given(malformed(SMALL_JSON))
def test_resolution_and_expansion_refuse_or_succeed(case):
    _, cls, payload = case
    parsed = _parse(cls, payload)
    try:
        if isinstance(parsed, ScenarioSpec):
            resolve_scenario(parsed)
        elif isinstance(parsed, OpenScenarioSpec):
            resolve_open_scenario(parsed)
        elif isinstance(parsed, Sweep):
            parsed.points()
    except ScenarioError:
        pass
