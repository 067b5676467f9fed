"""Sweep expansion equals ``override``: point ``i`` is ``base.override(cell)``.

:meth:`Sweep.points` may build its points however it likes, but every
point must be the spec that ``base.override`` builds from the point's
grid cell plus its derived seed and name: equal, with the same
``spec_key`` and the same ``to_dict()`` key order at every depth.  A
faulty grid must fail with ``override``'s exact :class:`ScenarioError`
text for the first failing cell.  Points may share nested spec objects
with each other and with the base, so running them must leave every
spec's ``to_dict()`` as it was.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import EXAMPLE_SWEEP
from repro.scenarios import (
    EXAMPLE_ADVERSARY_SWEEP,
    EXAMPLE_CD_SWEEP,
    EXAMPLE_OPEN_RETRY_SWEEP,
    EXAMPLE_OPEN_SWEEP,
    ChannelSpec,
    PredictionSpec,
    ScenarioError,
    ScenarioSpec,
    Sweep,
    derive_point_seeds,
    run_sweep,
    spec_key,
)


def _bench_grids() -> dict[str, Sweep]:
    """The three grids of ``benchmarks/sweep_workload.py``, loaded by path."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "sweep_workload.py"
    loader = importlib.util.spec_from_file_location("_sweep_workload", path)
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return {
        "bench-cd-grid": module.cd_grid_sweep(),
        "bench-fused": module.fused_sweep(),
        "bench-fused-player": module.fused_player_sweep(),
    }


EXAMPLE_SWEEPS = {
    "example-sweep": Sweep.from_dict(EXAMPLE_SWEEP),
    "cd-grid": Sweep.from_dict(EXAMPLE_CD_SWEEP),
    "adversary": Sweep.from_dict(EXAMPLE_ADVERSARY_SWEEP),
    "open-sweep": Sweep.from_dict(EXAMPLE_OPEN_SWEEP),
    "open-retry": Sweep.from_dict(EXAMPLE_OPEN_RETRY_SWEEP),
    **_bench_grids(),
}


def overridden_points(sweep: Sweep) -> list:
    """Each point as ``base.override(cell)``, with its derived seed and name."""
    base = sweep.base
    cells = sweep.point_overrides()
    seeds = (
        derive_point_seeds(base.seed, len(cells))
        if sweep.vary_seed and "seed" not in sweep.grid
        else None
    )
    points = []
    for index, cell in enumerate(cells):
        cell = dict(cell)
        if seeds is not None:
            cell["seed"] = seeds[index]
        if "name" not in cell:
            cell["name"] = f"{base.name}[{index}]" if base.name else f"point-{index}"
        points.append(base.override(cell))
    return points


def assert_same_points(got: list, want: list) -> None:
    assert len(got) == len(want)
    for index, (point, expected) in enumerate(zip(got, want)):
        assert type(point) is type(expected), index
        assert point == expected, index
        assert spec_key(point) == spec_key(expected), index
        # json.dumps keeps insertion order, so this pins the key order of
        # every mapping at every depth, not only the values.
        assert json.dumps(point.to_dict()) == json.dumps(expected.to_dict()), index


@pytest.mark.parametrize("name", sorted(EXAMPLE_SWEEPS))
def test_example_sweeps_expand_as_override(name):
    sweep = EXAMPLE_SWEEPS[name]
    assert_same_points(sweep.points(), overridden_points(sweep))


def test_expansion_without_vary_seed_or_with_a_seed_axis():
    cd = EXAMPLE_SWEEPS["cd-grid"]
    fixed = Sweep(cd.base, cd.grid, vary_seed=False)
    assert_same_points(fixed.points(), overridden_points(fixed))
    seeded = Sweep(cd.base, {**cd.grid, "seed": [3, 4]})
    assert_same_points(seeded.points(), overridden_points(seeded))


def _base(kind: str) -> ScenarioSpec:
    data = {
        "name": "", "protocol": {"id": "decay", "params": {}},
        "workload": {"kind": "fixed", "params": {"k": 4}},
        "channel": "nocd", "n": 256, "trials": 8, "max_rounds": 64, "seed": 5,
    }
    if kind == "prediction":
        data.update(
            name="pred",
            protocol={"id": "sorted-probing", "params": {"one_shot": False}},
            workload={"kind": "distribution",
                      "params": {"family": "range_uniform_subset", "ranges": [2, 5]}},
            prediction="truth",
        )
    elif kind == "player":
        data.update(
            name="player",
            protocol={"id": "tree-descent", "params": {"advice_bits": 2}},
            channel="cd",
            advice={"function": "min-id-prefix", "bits": 2},
            adversary="suffix",
        )
    return ScenarioSpec.from_dict(data)


BASES = {kind: _base(kind) for kind in ("plain", "prediction", "player")}

#: Grid paths with candidate values: valid and wrong-typed top-level
#: scalars, whole nested specs (shorthands included), dotted paths into
#: one nested spec, ``prediction.source`` (which starts a prediction on a
#: base without one) and unknown keys at both levels.
PATH_VALUES = {
    "trials": [1, 6, 0, "3", 2.5, True],
    "max_rounds": [16, 40, -1],
    "n": [64, 300, 1, "x"],
    "batch": [None, True, "yes"],
    "adversary": ["random", "prefix", 3],
    "name": ["a", "", 7],
    "seed": [0, 9, -1, "s"],
    "protocol": [
        {"id": "decay", "params": {}},
        "willard",
        {"id": "fixed-probability", "params": {"k_hat": 8.0}},
        {"id": ""},
        {"id": "decay", "bogus": 1},
        5,
    ],
    "protocol.id": ["decay", "fixed-probability", 3],
    "protocol.params.k_hat": [4.0, 16.0, "x"],
    "protocol.bogus": [1],
    "workload": [
        {"kind": "fixed", "params": {"k": 3}},
        {"kind": "trace", "params": {"ks": [2, 3]}},
        "fixed",
        {"kind": 1},
    ],
    "workload.kind": ["fixed", "distribution", ""],
    "workload.params.k": [2, 5, "four", None],
    "channel": ["cd", "nocd", "bogus", {"collision_detection": True},
                {"collision_detection": "yes"}],
    "channel.model": [
        None,
        {"name": "jam-oblivious", "params": {"budget": 2, "start": 1, "period": 1}},
        {"name": "nope"},
    ],
    "channel.model.params.budget": [0, 4, -1],
    "channel.collision_detection": [True, False, 0],
    "prediction": [None, "truth",
                   {"source": "distribution", "params": {"family": "uniform"}}, 7],
    "prediction.source": ["truth", "distribution", 9],
    "prediction.params.family": ["uniform", "zipf"],
    "advice": [None, {"function": "null"}, {"function": "min-id-prefix", "bits": 1},
               {"function": "nope"}],
    "advice.bits": [0, 2, -1, "2"],
    "advice.corruption": [None, {"model": "bit-flip", "probability": 0.2}],
    "advice.corruption.probability": [0.0, 0.5, 2.0],
    "bogus": [1],
    "bogus.deeper": [1],
    # Dotted paths into the fields a sweep derives per point.
    "seed.deeper": [1],
    "name.deeper": [1],
}

_JAMMER = {"name": "jam-oblivious", "params": {"budget": 2, "start": 1, "period": 1}}

#: Grids that set a field whole, by a shorthand, to null or to a value no
#: shorthand names, and then edit it by a dotted path.  The path edits
#: the spec the shorthand names, starts a null field from ``{}`` and
#: fails where the field's ``from_dict`` fails.
SHORTHAND_THEN_PATH = [
    {"prediction": ["distribution", "truth", None, 7],
     "prediction.params.family": ["uniform", "zipf"]},
    {"channel": ["cd", "nocd", "bogus"], "channel.model": [None, _JAMMER]},
    {"protocol": ["willard", "decay", 5], "protocol.params.repetitions": [2, 7]},
    {"workload": ["fixed"], "workload.params.k": [3]},
    {"advice": ["null", None], "advice.bits": [1]},
]


@st.composite
def grids(draw):
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    combined = draw(st.one_of(st.just({}), st.sampled_from(SHORTHAND_THEN_PATH)))
    paths = draw(
        st.lists(
            st.sampled_from(sorted(set(PATH_VALUES) - set(combined))),
            min_size=0 if combined else 1,
            max_size=4 - len(combined),
            unique=True,
        )
    )
    values = {**combined, **{path: PATH_VALUES[path] for path in paths}}
    grid = {
        path: draw(st.lists(st.sampled_from(choices), min_size=1, max_size=3))
        for path, choices in values.items()
    }
    return Sweep(base, copy.deepcopy(grid), vary_seed=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(grids())
def test_points_return_overrides_specs_or_its_first_error(sweep):
    try:
        want = overridden_points(sweep)
    except ScenarioError as error:
        with pytest.raises(ScenarioError) as raised:
            sweep.points()
        assert str(raised.value) == str(error)
        return
    assert_same_points(sweep.points(), want)


def test_a_dotted_path_edits_the_spec_a_shorthand_names():
    base = BASES["plain"]
    cell = {"prediction": "distribution", "prediction.params.family": "uniform"}
    want = PredictionSpec("distribution", {"family": "uniform"})
    assert base.override(cell).prediction == want
    cell = {"channel": "cd", "channel.model": _JAMMER}
    assert base.override(cell).channel == ChannelSpec(True, _JAMMER)
    grid = {"channel": ["cd"], "channel.model": [_JAMMER]}
    assert Sweep(base, grid).points()[0].channel == ChannelSpec(True, _JAMMER)


@pytest.mark.parametrize(
    "cell, message",
    [
        ({"channel": "bogus", "channel.model": None}, "unknown channel shorthand 'bogus'"),
        ({"workload": "fixed", "workload.params.k": 3},
         "workload spec must be a mapping, got str"),
        ({"prediction": 7, "prediction.source": "truth"},
         "prediction spec must be a mapping, got int"),
        ({"protocol": {"id": "restart", "params": {"inner": "decay"}},
          "protocol.params.inner.params.n": 8},
         "path 'protocol.params.inner.params.n' runs through 'protocol.params.inner', "
         "which holds str 'decay', not a mapping"),
    ],
)
def test_a_dotted_path_never_drops_the_value_it_passes_through(cell, message):
    with pytest.raises(ScenarioError) as raised:
        BASES["plain"].override(cell)
    assert str(raised.value) == message


def test_override_keeps_the_overridden_specs_untouched():
    base = BASES["player"]
    before = json.dumps(base.to_dict())
    cell = {"advice.bits": 1, "workload.params.k": 3, "channel": "nocd"}
    point = base.override(cell)
    assert json.dumps(base.to_dict()) == before
    assert cell == {"advice.bits": 1, "workload.params.k": 3, "channel": "nocd"}
    assert point.advice.bits == 1 and point.workload.params["k"] == 3


@pytest.mark.parametrize("name", ["bench-cd-grid", "bench-fused", "bench-fused-player"])
def test_fused_run_leaves_every_spec_unchanged(name):
    sweep = EXAMPLE_SWEEPS[name]
    small = Sweep(sweep.base.override({"trials": 8}), sweep.grid, sweep.vary_seed)
    base_before = json.dumps(small.base.to_dict())
    points = small.points()
    before = [json.dumps(point.to_dict()) for point in points]
    result = run_sweep(points, executor="fused")
    assert json.dumps(small.base.to_dict()) == base_before
    assert [json.dumps(point.to_dict()) for point in points] == before
    assert [json.dumps(r.spec.to_dict()) for r in result.results] == before
    # A second expansion after the run still builds the same points.
    assert [json.dumps(point.to_dict()) for point in small.points()] == before
