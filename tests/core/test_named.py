"""Tests for the shared named-object codec: Registry, Params, ScenarioError."""

import numpy as np
import pytest

from repro.core.named import Params, Registry, ScenarioError


def colors() -> Registry:
    return Registry("color", {"red": lambda params: ("red", params.take("shade", int, 1))})


class TestRegistry:
    def test_lookup_returns_the_entry(self):
        registry = Registry("color", {"red": 1, "blue": 2})
        assert registry["blue"] == 2
        assert sorted(registry) == ["blue", "red"]

    @pytest.mark.parametrize("name", ["green", 5, None, ["red"], {"red": 1}])
    def test_unknown_and_non_string_names_list_the_known_ones(self, name):
        registry = Registry("color", {"red": 1, "blue": 2})
        with pytest.raises(ScenarioError) as error:
            registry[name]
        assert str(error.value) == f"unknown color {name!r}; known: blue, red"

    def test_register_refuses_duplicates(self):
        registry = Registry("color", {"red": 1})
        assert registry.register("blue", 2) == 2
        with pytest.raises(ScenarioError, match="color 'red' already registered"):
            registry.register("red", 3)

    def test_build_reads_params_strictly(self):
        assert colors().build("red", {"shade": 3}) == ("red", 3)
        assert colors().build("red", {}) == ("red", 1)
        with pytest.raises(ScenarioError, match="unknown parameter.*color 'red': hue"):
            colors().build("red", {"hue": 2})
        with pytest.raises(ScenarioError, match="color 'red' parameter 'shade'"):
            colors().build("red", {"shade": "3"})


class TestParams:
    def test_needs_a_mapping(self):
        with pytest.raises(ScenarioError, match="thing params must be a mapping"):
            Params([1], "thing")

    def test_missing_required_and_defaults(self):
        params = Params({}, "thing")
        assert params.take("a", int, 4) == 4
        with pytest.raises(ScenarioError, match="thing requires parameter 'b'"):
            params.take("b", int)

    def test_null_means_absent_only_for_a_none_default(self):
        assert Params({"a": None}, "thing").take("a", int, None) is None
        with pytest.raises(ScenarioError, match="'a' must be an integer"):
            Params({"a": None}, "thing").take("a", int, 3)

    def test_done_refuses_leftovers(self):
        params = Params({"a": 1, "typo": 2}, "thing")
        params.take("a", int)
        with pytest.raises(ScenarioError, match="unknown parameter.*thing: typo"):
            params.done()

    @pytest.mark.parametrize(
        "value, kind",
        [
            (True, int),
            (False, float),
            ("3", int),
            ("0.5", float),
            (2.7, int),
            (float("inf"), int),
            (2**63, int),
            (10**400, float),
            ("false", bool),
            (0, bool),
            (None, bool),
            ("abc", list),
            ({"a": 1}, list),
            (3, str),
        ],
    )
    def test_refuses_without_coercing(self, value, kind):
        with pytest.raises(ScenarioError, match="thing parameter 'x' must"):
            Params({"x": value}, "thing").take("x", kind)

    @pytest.mark.parametrize(
        "value, kind, expected",
        [
            (3, int, 3),
            (3.0, int, 3),
            (np.int64(7), int, 7),
            (-(2**63), int, -(2**63)),
            (2, float, 2.0),
            (np.float64(0.25), float, 0.25),
            (False, bool, False),
            ((1, 2), list, [1, 2]),
            ("x", str, "x"),
            ([1], object, [1]),
            (True, object, True),
        ],
    )
    def test_accepts(self, value, kind, expected):
        taken = Params({"x": value}, "thing").take("x", kind)
        assert taken == expected and type(taken) is type(expected)


def test_scenario_error_is_still_exported_by_the_scenario_layer():
    from repro.scenarios import ScenarioError as exported
    from repro.scenarios.spec import ScenarioError as from_spec

    assert exported is ScenarioError is from_spec
    assert issubclass(ScenarioError, ValueError)
