"""Tests for the Sweep API and its executors."""

import pytest

from repro.scenarios import Sweep, SweepResult, derive_point_seeds, run_sweep
from repro.scenarios.spec import ScenarioError, ScenarioSpec


def base_spec(**overrides) -> ScenarioSpec:
    data = {
        "name": "sw",
        "protocol": {"id": "decay", "params": {}},
        "workload": {"kind": "fixed", "params": {"k": 8}},
        "channel": "nocd",
        "n": 512,
        "trials": 60,
        "max_rounds": 256,
        "seed": 100,
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


class TestExpansion:
    def test_cartesian_product_in_grid_order(self):
        sweep = Sweep(
            base=base_spec(),
            grid={"workload.params.k": [2, 4], "trials": [10, 20]},
        )
        points = sweep.points()
        assert [(p.workload.params["k"], p.trials) for p in points] == [
            (2, 10), (2, 20), (4, 10), (4, 20),
        ]

    def test_vary_seed_derives_independent_spawned_seeds(self):
        """Point seeds come from SeedSequence.spawn (not base + index), so
        adjacent points get unrelated streams; the derived seed still
        lands in the point's spec for standalone reproduction."""
        points = Sweep(base=base_spec(), grid={"trials": [10, 20, 30]}).points()
        expected = derive_point_seeds(100, 3)
        assert [p.seed for p in points] == expected
        assert len(set(expected)) == 3
        assert expected != [100, 101, 102]

    def test_derived_seeds_are_deterministic_and_json_native(self):
        first = derive_point_seeds(42, 4)
        assert first == derive_point_seeds(42, 4)
        assert all(isinstance(seed, int) and seed >= 0 for seed in first)
        # A longer sweep extends, not reshuffles, the seed list.
        assert derive_point_seeds(42, 6)[:4] == first

    def test_vary_seed_off_keeps_base_seed(self):
        points = Sweep(
            base=base_spec(), grid={"trials": [10, 20]}, vary_seed=False
        ).points()
        assert [p.seed for p in points] == [100, 100]

    def test_grid_seed_wins_over_vary_seed(self):
        points = Sweep(base=base_spec(), grid={"seed": [7, 8]}).points()
        assert [p.seed for p in points] == [7, 8]

    def test_points_get_unique_labels(self):
        labels = [p.name for p in Sweep(base_spec(), {"trials": [1, 2]}).points()]
        assert labels == ["sw[0]", "sw[1]"]

    def test_empty_grid_is_single_point(self):
        assert len(Sweep(base=base_spec(), grid={}).points()) == 1

    def test_grid_validation(self):
        with pytest.raises(ScenarioError, match="must be a list"):
            Sweep(base=base_spec(), grid={"trials": 5})
        with pytest.raises(ScenarioError, match="non-empty"):
            Sweep(base=base_spec(), grid={"trials": []})

    @pytest.mark.parametrize(
        "grid, kind",
        [
            ({"name": "abc"}, "str"),  # once three points named a, b, c
            ({"workload.params.k": {"2": 1, "4": 1}}, "dict"),  # once its keys
            ({"trials": 5}, "int"),
            ({"seed": None}, "NoneType"),
        ],
    )
    def test_from_dict_checks_raw_grid_values(self, grid, kind):
        path = next(iter(grid))
        with pytest.raises(
            ScenarioError, match=f"grid values for '{path}' must be a list, got {kind}"
        ):
            Sweep.from_dict({"base": base_spec().to_dict(), "grid": grid})

    def test_json_round_trip(self):
        sweep = Sweep(base=base_spec(), grid={"workload.params.k": [2, 3]})
        assert Sweep.from_json(sweep.to_json()) == sweep


class TestExecution:
    def test_serial_results_in_grid_order(self):
        sweep = Sweep(base=base_spec(), grid={"workload.params.k": [2, 4, 8]})
        result = run_sweep(sweep)
        assert result.executor == "serial" and len(result) == 3
        assert [r.spec.workload.params["k"] for r in result.results] == [2, 4, 8]

    def test_process_pool_matches_serial_exactly(self):
        """Executors are interchangeable: same points, same results."""
        sweep = Sweep(base=base_spec(), grid={"workload.params.k": [2, 5, 9]})
        serial = run_sweep(sweep, executor="serial")
        pooled = run_sweep(sweep, executor="process", max_workers=2)
        assert serial.results == pooled.results

    def test_unknown_executor(self):
        with pytest.raises(ScenarioError, match="unknown executor"):
            run_sweep(Sweep(base=base_spec(), grid={}), executor="quantum")

    def test_explicit_point_list(self):
        result = run_sweep([base_spec(), base_spec(seed=9)])
        assert len(result) == 2

    def test_result_round_trip_and_render(self):
        result = run_sweep(Sweep(base=base_spec(), grid={"trials": [10, 20]}))
        restored = SweepResult.from_dict(result.to_dict())
        assert restored.results == result.results
        text = result.render()
        assert "2 point(s)" in text and "sw[0]" in text
