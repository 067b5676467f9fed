"""The sweep executor contract, the sweep flag checks and NumPy spec values.

An executor is ``executor(pending, *, max_workers, checkpoint,
fault_plan) -> failures``: ``pending`` maps the grid index of every point
still to run to its spec, every completed point is reported through
``checkpoint(grid_indices, results)``, and only an executor that declares
``supervises`` is handed worker faults.
"""

import json
import math

import numpy as np
import pytest

from repro.cli import EXAMPLE_SWEEP, main
from repro.scenarios import (
    EXECUTORS,
    AdviceSpec,
    ChannelSpec,
    FaultPlan,
    ProtocolSpec,
    ScenarioSpec,
    SimulatedCrash,
    Sweep,
    SweepPointError,
    WorkloadSpec,
    make_supervised_executor,
    run_sweep,
    spec_key,
)
from repro.scenarios import supervised as supervised_module
from repro.scenarios import sweep as sweep_module
from repro.scenarios.spec import ScenarioError


def base_spec(**overrides) -> ScenarioSpec:
    data = {
        "name": "ec",
        "protocol": {"id": "decay", "params": {}},
        "workload": {"kind": "fixed", "params": {"k": 8}},
        "channel": "nocd",
        "n": 512,
        "trials": 20,
        "max_rounds": 256,
        "seed": 7,
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


def four_points() -> Sweep:
    return Sweep(base=base_spec(), grid={"workload.params.k": [2, 4, 6, 8]})


class Recorder:
    """A serial executor that records what ``run_sweep`` hands it."""

    def __init__(self, *, supervises=False, manifest=()):
        self.calls = []
        self.supervises = supervises
        self.manifest = list(manifest)

    def __call__(self, pending, *, max_workers, checkpoint, fault_plan):
        self.calls.append((dict(pending), max_workers, fault_plan))
        for index, point in pending.items():
            if index in {failure["index"] for failure in self.manifest}:
                continue
            checkpoint([index], [sweep_module.spec_family(point).run(point)])
        return list(self.manifest)


class TestContract:
    def test_pending_maps_grid_indices_to_specs_in_grid_order(self):
        sweep = four_points()
        recorder = Recorder()
        out = run_sweep(sweep, executor=recorder, max_workers=3)
        assert out.results == run_sweep(sweep, executor="serial").results
        assert out.executor == "custom"  # no executor_name, no __name__
        [(pending, max_workers, fault_plan)] = recorder.calls
        assert list(pending) == [0, 1, 2, 3]
        assert list(pending.values()) == sweep.points()
        assert max_workers == 3 and fault_plan is None

    def test_resumed_run_hands_over_only_the_missing_indices(self, tmp_path):
        sweep = four_points()
        journal = tmp_path / "j.jsonl"
        with pytest.raises(SimulatedCrash):
            run_sweep(
                sweep,
                executor="serial",
                resume=journal,
                fault_plan=FaultPlan(crash_driver_after=2),
            )
        recorder = Recorder()
        out = run_sweep(sweep, executor=recorder, resume=journal)
        [(pending, _, _)] = recorder.calls
        assert list(pending) == [2, 3]
        assert pending == {2: sweep.points()[2], 3: sweep.points()[3]}
        assert out.resumed == 2
        assert out.results == run_sweep(sweep, executor="serial").results

    def test_manifest_entries_gain_name_overrides_and_spec(self):
        sweep = four_points()
        recorder = Recorder(
            supervises=True,
            manifest=[{"error": "boom", "attempts": 2, "index": 2}],
        )
        out = run_sweep(sweep, executor=recorder)
        assert len(out.results) == 3
        [failure] = out.failures
        assert list(failure) == [
            "error", "attempts", "index", "name", "overrides", "spec",
        ]
        assert failure["index"] == 2 and failure["name"] == "ec[2]"
        assert failure["overrides"] == {"workload.params.k": 6}
        assert failure["spec"] == sweep.points()[2].to_dict()

    def test_an_executor_that_drops_points_silently_is_refused(self):
        def lazy(pending, *, max_workers, checkpoint, fault_plan):
            return []

        with pytest.raises(ScenarioError, match="returned 0 of 4"):
            run_sweep(four_points(), executor=lazy)

    def test_worker_faults_go_only_to_a_supervising_executor(self):
        plan = FaultPlan(crash={3: 1}, hang={1: 2})
        with pytest.raises(ScenarioError, match="does not supervise workers"):
            run_sweep(four_points(), executor=Recorder(), fault_plan=plan)
        recorder = Recorder(supervises=True)
        run_sweep(four_points(), executor=recorder, fault_plan=plan)
        # The plan arrives whole: its keys are grid indices already.
        assert recorder.calls[0][2] is plan

    def test_driver_crash_fault_works_with_a_custom_executor(self, tmp_path):
        with pytest.raises(SimulatedCrash, match="after 1"):
            run_sweep(
                four_points(),
                executor=Recorder(),
                resume=tmp_path / "j.jsonl",
                fault_plan=FaultPlan(crash_driver_after=1),
            )

    @pytest.mark.parametrize(
        "plan, message",
        [
            (FaultPlan(crash={7: 1}), "'crash' names point 7, but the sweep has 4"),
            (FaultPlan(hang={1: 1, 4: 2}), "'hang' names point 4, but the sweep has 4"),
            (FaultPlan(corrupt={9: 1, 5: 1}), "'corrupt' names point 5"),
            (
                FaultPlan(crash_driver_after=5),
                "'crash_driver_after' is 5, but the sweep has 4 points",
            ),
        ],
    )
    def test_faults_outside_the_grid_are_refused(self, plan, message):
        """A fault aimed past the last point would never fire."""
        recorder = Recorder(supervises=True)
        with pytest.raises(ScenarioError, match=message):
            run_sweep(four_points(), executor=recorder, fault_plan=plan)
        assert recorder.calls == []

    def test_faults_on_the_last_point_and_after_it_fire(self):
        recorder = Recorder(supervises=True)
        run_sweep(four_points(), executor=recorder, fault_plan=FaultPlan(crash={3: 1}))
        assert len(recorder.calls) == 1
        with pytest.raises(SimulatedCrash, match="after 4"):
            run_sweep(
                four_points(),
                executor=Recorder(),
                fault_plan=FaultPlan(crash_driver_after=4),
            )

    def test_only_the_supervised_builtin_supervises(self):
        assert sorted(EXECUTORS) == ["fused", "process", "serial", "supervised"]
        assert [
            name for name, run in EXECUTORS.items() if getattr(run, "supervises", False)
        ] == ["supervised"]
        assert make_supervised_executor().supervises is True


class TestFlagChecks:
    @pytest.mark.parametrize("workers", [0, -3, np.int64(0), 1.5, 2.0, True, "2"])
    def test_max_workers_must_be_a_positive_int_or_none(self, workers):
        def never(pending, **keywords):
            raise AssertionError("an executor ran")

        with pytest.raises(ScenarioError, match="'max_workers'"):
            run_sweep(four_points(), executor=never, max_workers=workers)

    @pytest.mark.parametrize("executor", ["serial", "fused"])
    def test_one_worker_and_none_run(self, executor):
        sweep = Sweep(base=base_spec(), grid={"workload.params.k": [2, 4]})
        assert len(run_sweep(sweep, executor=executor, max_workers=1)) == 2
        assert len(run_sweep(sweep, executor=executor, max_workers=None)) == 2

    def test_a_numpy_worker_count_arrives_as_an_int(self):
        recorder = Recorder()
        run_sweep(four_points(), executor=recorder, max_workers=np.int64(2))
        assert type(recorder.calls[0][1]) is int

    @pytest.mark.parametrize(
        "options, name",
        [
            ({"timeout": math.nan}, "'timeout'"),
            ({"timeout": math.inf}, "'timeout'"),
            ({"timeout": 0}, "'timeout'"),
            ({"timeout": -1.0}, "'timeout'"),
            ({"backoff": math.nan}, "'backoff'"),
            ({"backoff": math.inf}, "'backoff'"),
            ({"backoff": -0.5}, "'backoff'"),
            ({"retries": -1}, "'retries'"),
            ({"timeout": "5"}, "'timeout' must be a number, got str"),
            ({"timeout": None}, "'timeout' must be a number, got NoneType"),
            ({"timeout": True}, "'timeout' must be a number, got bool"),
            ({"backoff": "0.1"}, "'backoff' must be a number, got str"),
            ({"retries": 1.5}, "'retries' must be an integer, got float"),
            ({"retries": "2"}, "'retries' must be an integer, got str"),
            ({"retries": None}, "'retries' must be an integer, got NoneType"),
        ],
    )
    def test_malformed_supervised_options_are_refused(self, options, name):
        with pytest.raises(ScenarioError, match=name):
            make_supervised_executor(**options)


class TestCliFlagChecks:
    """Malformed sweep flags exit 2 naming the option, starting no worker."""

    @pytest.fixture(autouse=True)
    def no_workers(self, monkeypatch):
        def refuse():
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(sweep_module, "_pool_context", refuse)
        monkeypatch.setattr(supervised_module, "_pool_context", refuse)

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--workers", "0"], "'max_workers'"),
            (["--workers", "-3"], "'max_workers'"),
            (["--executor", "process", "--workers", "0"], "'max_workers'"),
            (["--executor", "supervised", "--workers", "-3"], "'max_workers'"),
            (["--executor", "supervised", "--point-timeout", "nan"], "'timeout'"),
            (["--executor", "supervised", "--point-timeout", "inf"], "'timeout'"),
            (["--executor", "supervised", "--point-timeout", "0"], "'timeout'"),
            (
                ["--executor", "supervised", "--inject-faults", '{"crash": {"7": 1}}'],
                "'crash' names point 7",
            ),
            (["--inject-faults", '{"crash_driver_after": 5}'], "'crash_driver_after'"),
        ],
    )
    def test_malformed_flags_exit_2(self, tmp_path, capsys, flags, name):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(EXAMPLE_SWEEP))
        assert main(["scenario", "sweep", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err


def numpy_grid() -> Sweep:
    return Sweep(
        base=base_spec(
            workload={
                "kind": "distribution",
                "params": {"family": "range_uniform_subset", "ranges": [2, 4]},
            }
        ),
        grid={"workload.params.ranges": [list(np.arange(2, 6)), np.arange(3, 8, 2)]},
    )


def int_grid() -> Sweep:
    return Sweep(
        base=numpy_grid().base,
        grid={"workload.params.ranges": [[2, 3, 4, 5], [3, 5, 7]]},
    )


class TestNumpyValues:
    def test_numpy_grid_keys_equal_the_int_grid(self):
        assert [spec_key(p) for p in numpy_grid().points()] == [
            spec_key(p) for p in int_grid().points()
        ]
        assert numpy_grid() == int_grid()
        assert numpy_grid().to_json() == int_grid().to_json()

    def test_numpy_grid_runs_with_cache_and_resume(self, tmp_path):
        reference = run_sweep(int_grid())
        cold = run_sweep(
            numpy_grid(), cache=tmp_path / "cache", resume=tmp_path / "j.jsonl"
        )
        assert cold.results == reference.results
        assert json.loads(cold.to_json())["results"][0]["spec"] == (
            reference.results[0].spec.to_dict()
        )
        resumed = run_sweep(numpy_grid(), resume=tmp_path / "j.jsonl")
        assert resumed.resumed == 2 and resumed.results == reference.results
        warm = run_sweep(int_grid(), cache=tmp_path / "cache")
        assert warm.cache_hits == 2 and warm.results == reference.results

    def test_nested_values_are_stored_as_python_types(self):
        params = {
            "a": np.int64(3),
            "b": np.float32(0.5),
            "c": np.bool_(True),
            "d": (np.int8(1), [np.uint16(2), {"e": np.array([[1, 2], [3, 4]])}]),
            "g": np.array(5),
        }
        spec = WorkloadSpec("x", params)
        assert spec.params == {
            "a": 3, "b": 0.5, "c": True, "d": [1, [2, {"e": [[1, 2], [3, 4]]}]], "g": 5,
        }
        assert [type(spec.params[key]) for key in "abcg"] == [int, float, bool, int]
        assert type(spec.params["d"][1][0]) is int
        assert type(spec.params["d"][1][1]["e"][0][0]) is int
        assert type(WorkloadSpec("x", {"f": np.float64(0.25)}).params["f"]) is float
        channel = ChannelSpec(
            False, {"name": "noise", "params": {"success_erasure": np.float64(0.1)}}
        )
        assert type(channel.model["params"]["success_erasure"]) is float
        advice = AdviceSpec(
            "min-id-prefix", 2, {"model": "bit-flip", "probability": np.float32(0.25)}
        )
        assert type(advice.corruption["probability"]) is float
        json.dumps([spec.to_dict(), channel.to_dict(), advice.to_dict()])

    def test_specs_do_not_share_the_callers_containers(self):
        ranges = [2, 4]
        params = {"family": "range_uniform_subset", "ranges": ranges}
        spec = WorkloadSpec("distribution", params)
        ranges.append(6)
        params["extra"] = 1
        assert spec.params == {"family": "range_uniform_subset", "ranges": [2, 4]}

    def test_override_leaves_the_callers_mappings_alone(self):
        params = {"k": 2}
        spec = base_spec().override({"workload.params": params, "workload.params.k": 5})
        assert spec.workload.params == {"k": 5} and params == {"k": 2}
        sweep = Sweep(
            base=base_spec(),
            grid={"workload.params": [{"k": 2}], "workload.params.k": [3, 4]},
        )
        text = sweep.to_json()
        assert [p.workload.params for p in sweep.points()] == [{"k": 3}, {"k": 4}]
        assert sweep.to_json() == text

    def test_an_array_is_a_value_list(self):
        advice = {
            "function": "min-id-prefix",
            "bits": 2,
            "corruption": {"model": "bit-flip", "probability": 0.0},
        }
        path = "advice.corruption.probability"
        array = Sweep(base=base_spec(advice=advice), grid={path: np.linspace(0, 0.5, 5)})
        plain = Sweep(
            base=base_spec(advice=advice), grid={path: [0.0, 0.125, 0.25, 0.375, 0.5]}
        )
        assert array == plain and array.to_json() == plain.to_json()
        assert [spec_key(p) for p in array.points()] == [
            spec_key(p) for p in plain.points()
        ]
        grid = {"workload.params.k": np.arange(2, 6)}
        ints = {"workload.params.k": [2, 3, 4, 5]}
        assert run_sweep(Sweep(base=base_spec(), grid=grid)).results == run_sweep(
            Sweep(base=base_spec(), grid=ints)
        ).results
        rows = Sweep(
            base=numpy_grid().base, grid={"workload.params.ranges": np.eye(2, dtype=int)}
        )
        assert rows.grid == {"workload.params.ranges": [[1, 0], [0, 1]]}
        with pytest.raises(ScenarioError, match="must be a list, got ndarray"):
            Sweep(base=base_spec(), grid={"workload.params.k": np.array(3)})

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ProtocolSpec("decay", {"cycle": {1, 2}}), "protocol params 'cycle'"),
            (
                lambda: WorkloadSpec("fixed", {"k": {"deep": [object()]}}),
                "workload params 'k.deep'",
            ),
            (lambda: WorkloadSpec("fixed", {3: 4}), "workload params keys must be strings"),
            (lambda: WorkloadSpec("fixed", {"k": np.complex64(1)}), "workload params 'k'"),
            (
                lambda: ChannelSpec(True, {"name": "noise", "params": {"p": {0.1}}}),
                "channel model spec 'params.p'",
            ),
            (
                lambda: AdviceSpec("null", 0, {"model": "bit-flip", "probability": b"x"}),
                "advice corruption 'probability'",
            ),
        ],
    )
    def test_values_json_cannot_encode_name_the_spec_and_key(self, make, message):
        with pytest.raises(ScenarioError, match=message):
            make()

    def test_failing_numpy_grid_point_names_its_overrides(self):
        sweep = Sweep(
            base=base_spec(),
            grid={"workload.params.k": [np.int64(2)], "protocol.id": ["no-such"]},
        )
        with pytest.raises(SweepPointError) as info:
            run_sweep(sweep)
        assert info.value.overrides == {"workload.params.k": 2, "protocol.id": "no-such"}
        assert type(info.value.overrides["workload.params.k"]) is int
