"""Tests for the supervised executor, fault plans, and error reporting."""

import json

import pytest

from repro.scenarios import (
    EXECUTORS,
    FaultPlan,
    OpenScenarioSpec,
    ScenarioSpec,
    Sweep,
    SweepPointError,
    fault_plan_from_json,
    make_supervised_executor,
    run_sweep,
)
from repro.scenarios.spec import ScenarioError


def base_spec(**overrides) -> ScenarioSpec:
    data = {
        "name": "sv",
        "protocol": {"id": "decay", "params": {}},
        "workload": {"kind": "fixed", "params": {"k": 8}},
        "channel": "nocd",
        "n": 512,
        "trials": 40,
        "max_rounds": 256,
        "seed": 100,
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


def small_sweep() -> Sweep:
    return Sweep(base=base_spec(), grid={"workload.params.k": [2, 4, 6]})


def open_rate_sweep() -> Sweep:
    base = OpenScenarioSpec.from_dict(
        {
            "name": "ov",
            "protocol": {"id": "decay"},
            "arrivals": {"family": "poisson", "params": {"rate": 0.1}},
            "channel": "nocd",
            "n": 64,
            "trials": 4,
            "rounds": 96,
            "seed": 100,
        }
    )
    return Sweep(base=base, grid={"arrivals.params.rate": [0.1, 0.2, 0.3]})


FAST = make_supervised_executor(timeout=2.0, retries=1, backoff=0.01)
NO_RETRY = make_supervised_executor(timeout=2.0, retries=0, backoff=0.01)


class TestFaultPlan:
    def test_directive_order_crash_hang_corrupt_then_clean(self):
        plan = FaultPlan(crash={0: 1}, hang={0: 1}, corrupt={0: 1})
        assert [plan.directive(0, a) for a in range(4)] == [
            "crash", "hang", "corrupt", None,
        ]
        assert plan.directive(1, 0) is None

    def test_json_round_trip(self):
        plan = FaultPlan(crash={1: 2}, corrupt={0: 1},
                         crash_driver_after=3, hang_seconds=0.5)
        import json
        assert FaultPlan.from_dict(json.loads(
            json.dumps(plan.to_dict()))) == plan
        assert fault_plan_from_json('{"crash": {"1": 2}}') == FaultPlan(
            crash={1: 2}
        )

    def test_rejects_malformed_plans(self):
        with pytest.raises(ScenarioError, match="integer"):
            FaultPlan(crash={"x": 1})
        with pytest.raises(ScenarioError, match=">= 0"):
            FaultPlan(hang={-1: 1})
        with pytest.raises(ScenarioError, match="unknown fault plan field"):
            FaultPlan.from_dict({"kaboom": {}})
        with pytest.raises(ScenarioError, match="invalid fault plan JSON"):
            fault_plan_from_json("{nope")

    @pytest.mark.parametrize(
        "plan, field",
        [
            ({"crash": 5}, "'crash' must be a mapping"),
            ({"hang": [1]}, "'hang' must be a mapping"),
            ({"hang_seconds": None}, "'hang_seconds' must be a number"),
            ({"hang_seconds": "5"}, "'hang_seconds' must be a number"),
            ({"crash_driver_after": 1.5}, "'crash_driver_after' must be an integer"),
            ({"crash_driver_after": True}, "'crash_driver_after' must be an integer"),
            ({"crash_driver_after": "2"}, "'crash_driver_after' must be an integer"),
            ({"crash": {"0": 1.7}}, "'crash' point '0' attempt count must be an integer"),
            ({"corrupt": {"0": True}}, "'corrupt' point '0' attempt count must be an integer"),
            ({"hang": {"0": "1"}}, "'hang' point '0' attempt count must be an integer"),
            ({"crash": {"1.5": 1}}, "'crash' point '1.5' index must be an integer"),
        ],
    )
    def test_malformed_fields_fail_naming_the_field(self, plan, field):
        with pytest.raises(ScenarioError, match=field):
            fault_plan_from_json(json.dumps(plan))

    def test_integral_values_keep_their_meaning(self):
        plan = FaultPlan.from_dict({"hang_seconds": 600, "crash_driver_after": 4})
        assert plan.hang_seconds == 600.0 and plan.crash_driver_after == 4


class TestSupervisedRecovery:
    def test_clean_run_matches_serial(self):
        sweep = small_sweep()
        reference = run_sweep(sweep, executor="serial")
        supervised = run_sweep(sweep, executor=FAST, max_workers=2)
        assert supervised.results == reference.results
        assert supervised.executor == "supervised"
        assert supervised.failures == []

    def test_recovers_from_one_crash_per_point(self):
        sweep = small_sweep()
        reference = run_sweep(sweep, executor="serial")
        out = run_sweep(
            sweep,
            executor=FAST,
            max_workers=1,
            fault_plan=FaultPlan(crash={0: 1, 1: 1, 2: 1}),
        )
        assert out.results == reference.results
        assert out.failures == []

    def test_recovers_from_hang_via_timeout(self):
        sweep = small_sweep()
        reference = run_sweep(sweep, executor="serial")
        out = run_sweep(
            sweep,
            executor=make_supervised_executor(
                timeout=1.0, retries=1, backoff=0.01
            ),
            max_workers=1,
            fault_plan=FaultPlan(hang={1: 1}, hang_seconds=600),
        )
        assert out.results == reference.results
        assert out.failures == []

    def test_detects_and_retries_corrupted_results(self):
        sweep = small_sweep()
        reference = run_sweep(sweep, executor="serial")
        out = run_sweep(
            sweep,
            executor=FAST,
            max_workers=1,
            fault_plan=FaultPlan(corrupt={2: 1}),
        )
        assert out.results == reference.results
        assert out.failures == []

    def test_exhausted_retries_degrade_to_manifest(self):
        sweep = small_sweep()
        reference = run_sweep(sweep, executor="serial")
        out = run_sweep(
            sweep,
            executor=NO_RETRY,
            max_workers=1,
            fault_plan=FaultPlan(crash={1: 5}),
        )
        # Graceful degradation: the other points complete and return.
        assert out.results == [reference.results[0], reference.results[2]]
        assert len(out.failures) == 1
        failure = out.failures[0]
        assert failure["index"] == 1
        assert failure["attempts"] == 1
        assert "exit code" in failure["error"]
        assert failure["overrides"] == {"workload.params.k": 4}
        assert ScenarioSpec.from_dict(failure["spec"]) == sweep.points()[1]
        assert "failures=1" in out.render()
        assert "point 1" in out.render()

    def test_corruption_past_retries_lands_in_manifest(self):
        out = run_sweep(
            small_sweep(),
            executor=NO_RETRY,
            max_workers=1,
            fault_plan=FaultPlan(corrupt={0: 5}),
        )
        assert len(out.failures) == 1
        assert "corrupted result" in out.failures[0]["error"]

    def test_open_sweep_recovers_from_crash_and_corrupt(self):
        sweep = open_rate_sweep()
        reference = run_sweep(sweep, executor="serial")
        out = run_sweep(
            sweep,
            executor=FAST,
            max_workers=1,
            fault_plan=FaultPlan(crash={0: 1}, corrupt={2: 1}),
        )
        assert out.results == reference.results
        assert out.failures == []

    def test_open_manifest_names_the_rate_override(self):
        sweep = open_rate_sweep()
        reference = run_sweep(sweep, executor="serial")
        out = run_sweep(
            sweep,
            executor=NO_RETRY,
            max_workers=1,
            fault_plan=FaultPlan(crash={0: 5}, corrupt={2: 5}),
        )
        assert out.results == [reference.results[1]]
        assert [f["index"] for f in out.failures] == [0, 2]
        points = sweep.points()
        for failure in out.failures:
            index = failure["index"]
            assert failure["name"] == f"ov[{index}]"
            assert failure["overrides"] == {
                "arrivals.params.rate": [0.1, 0.2, 0.3][index]
            }
            assert OpenScenarioSpec.from_dict(failure["spec"]) == points[index]
        text = out.render()
        assert "failures=2" in text and "p99" in text

    def test_registered_by_default(self):
        assert "supervised" in EXECUTORS


class TestSweepErrorReporting:
    """A failing point names its index, spec and grid overrides.

    An unknown protocol id passes spec validation (the registry is
    consulted at run time, so specs can be authored before their
    protocol is registered) but fails at execution - the one trigger
    that reaches every executor's failure path, including inside a
    process-pool worker.
    """

    def _failing_sweep(self) -> Sweep:
        return Sweep(
            base=base_spec(trials=5),
            grid={"protocol.id": ["decay", "no-such-protocol"]},
        )

    @pytest.mark.parametrize("executor", ["serial", "process", "fused"])
    def test_execution_failure_names_the_point(self, executor):
        sweep = self._failing_sweep()
        with pytest.raises(SweepPointError) as info:
            run_sweep(sweep, executor=executor, max_workers=2)
        error = info.value
        assert error.index == 1
        assert error.overrides == {"protocol.id": "no-such-protocol"}
        message = str(error)
        assert "sweep point 1" in message
        assert "no-such-protocol" in message
        assert "grid overrides" in message
        assert "point spec" in message  # full spec for standalone repro
        assert ScenarioSpec.from_dict(
            __import__("json").loads(
                message.split("point spec: ", 1)[1]
            )
        ) == sweep.points()[1]

    def test_supervised_reports_the_same_error_as_a_manifest(self):
        out = run_sweep(
            self._failing_sweep(), executor=NO_RETRY, max_workers=1
        )
        assert len(out.results) == 1
        assert len(out.failures) == 1
        failure = out.failures[0]
        assert failure["index"] == 1
        assert failure["overrides"] == {"protocol.id": "no-such-protocol"}
        assert "no-such-protocol" in failure["error"]

    def test_explicit_point_list_reports_empty_overrides(self):
        points = self._failing_sweep().points()
        with pytest.raises(SweepPointError) as info:
            run_sweep(points, executor="serial")
        assert info.value.index == 1
        assert info.value.overrides == {}
