"""Crash-resume bit-identity and warm-cache tests for run_sweep.

The acceptance bar of the durability layer: a sweep interrupted at any
point (via the deterministic crash-injection harness) and resumed from
its journal produces results *identical* to one uninterrupted run, on
every executor; and a fully warm cache serves a sweep without invoking
any engine at all.
"""

import json

import pytest

from repro.scenarios import (
    FaultPlan,
    OpenScenarioSpec,
    ResultStore,
    ScenarioSpec,
    SimulatedCrash,
    Sweep,
    SweepPointError,
    make_supervised_executor,
    run_sweep,
)
from repro.scenarios.spec import ScenarioError
from repro.scenarios import runner as runner_module


def base_spec(**overrides) -> ScenarioSpec:
    data = {
        "name": "rz",
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


def serial_sweep() -> Sweep:
    return Sweep(base=base_spec(), grid={"workload.params.k": [2, 4, 6, 8]})


def fused_sweep() -> Sweep:
    # Two fusion groups of three (history + schedule on CD), so the
    # group-atomic checkpoints land at group boundaries.
    return Sweep(
        base=base_spec(channel="cd", n=256, trials=30, max_rounds=128),
        grid={"protocol.id": ["willard", "decay"],
              "workload.params.k": [2, 4, 6]},
    )


def open_sweep() -> Sweep:
    base = OpenScenarioSpec.from_dict(
        {
            "name": "oz",
            "protocol": {"id": "decay"},
            "arrivals": {"family": "poisson", "params": {"rate": 0.2}},
            "channel": "cd",
            "n": 64,
            "trials": 4,
            "rounds": 64,
            "seed": 5,
        }
    )
    return Sweep(base=base, grid={"arrivals.params.rate": [0.1, 0.2, 0.3]})


SUPERVISED_FAST = make_supervised_executor(timeout=30.0, retries=0)


def crash_then_resume(sweep, journal, *, k, executor, max_workers=None):
    """Run with an injected driver crash after ``k`` points, then resume."""
    with pytest.raises(SimulatedCrash):
        run_sweep(
            sweep,
            executor=executor,
            max_workers=max_workers,
            resume=journal,
            fault_plan=FaultPlan(crash_driver_after=k),
        )
    return run_sweep(
        sweep, executor=executor, max_workers=max_workers, resume=journal
    )


class TestCrashResumeBitIdentity:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_serial(self, tmp_path, k):
        sweep = serial_sweep()
        reference = run_sweep(sweep, executor="serial")
        resumed = crash_then_resume(
            sweep, tmp_path / "j.jsonl", k=k, executor="serial"
        )
        assert resumed.results == reference.results
        assert resumed.resumed == k
        assert resumed.failures == []

    @pytest.mark.parametrize("k", [0, 1, 3, 5])
    def test_fused(self, tmp_path, k):
        sweep = fused_sweep()
        reference = run_sweep(sweep, executor="fused")
        assert {r.engine for r in reference.results} == {
            "fused-history", "fused-schedule",
        }
        resumed = crash_then_resume(
            sweep, tmp_path / "j.jsonl", k=k, executor="fused"
        )
        # Bit-identical including the stacked engine labels: resumed
        # groups re-fuse whole, so no point degrades to a serial label.
        assert resumed.results == reference.results
        assert [r.engine for r in resumed.results] == [
            r.engine for r in reference.results
        ]
        # Checkpoints are group-atomic (groups of 3): the crash after k
        # landed on a group boundary at or past k.
        assert resumed.resumed % 3 == 0
        assert resumed.resumed >= min(k, 6)

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_supervised(self, tmp_path, k):
        sweep = serial_sweep()
        reference = run_sweep(sweep, executor="serial")
        resumed = crash_then_resume(
            sweep,
            tmp_path / "j.jsonl",
            k=k,
            executor=SUPERVISED_FAST,
            max_workers=1,
        )
        assert resumed.results == reference.results
        assert resumed.resumed == k
        assert resumed.failures == []

    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("executor", ["serial", "fused", "supervised"])
    def test_open(self, tmp_path, executor, k):
        sweep = open_sweep()
        reference = run_sweep(sweep, executor="serial")
        if executor == "supervised":
            executor = SUPERVISED_FAST
        resumed = crash_then_resume(
            sweep, tmp_path / "j.jsonl", k=k, executor=executor, max_workers=1
        )
        assert resumed.results == reference.results
        assert resumed.resumed == k
        assert resumed.failures == []

    def test_process_executor_resumes_too(self, tmp_path):
        sweep = serial_sweep()
        reference = run_sweep(sweep, executor="serial")
        resumed = crash_then_resume(
            sweep, tmp_path / "j.jsonl", k=2, executor="process", max_workers=2
        )
        assert resumed.results == reference.results
        assert resumed.resumed >= 2

    def test_torn_final_journal_line_reexecutes_that_point(self, tmp_path):
        sweep = serial_sweep()
        reference = run_sweep(sweep, executor="serial")
        journal = tmp_path / "j.jsonl"
        run_sweep(sweep, executor="serial", resume=journal)
        text = journal.read_text()
        last = text.splitlines()[-1]
        journal.write_text(text[: len(text) - len(last) // 2 - 1])
        resumed = run_sweep(sweep, executor="serial", resume=journal)
        assert resumed.resumed == 3
        assert resumed.results == reference.results

    def test_journal_of_a_different_grid_is_refused(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_sweep(serial_sweep(), executor="serial", resume=journal)
        other = Sweep(base=base_spec(), grid={"workload.params.k": [3, 5, 7, 9]})
        with pytest.raises(ScenarioError, match="different sweep"):
            run_sweep(other, executor="serial", resume=journal)

    def test_completed_journal_replays_everything(self, tmp_path):
        sweep = serial_sweep()
        journal = tmp_path / "j.jsonl"
        reference = run_sweep(sweep, executor="serial", resume=journal)
        replayed = run_sweep(sweep, executor="serial", resume=journal)
        assert replayed.resumed == 4
        assert replayed.results == reference.results


class TestResumedGridIndices:
    """A resumed sweep names its points by grid index, not by position.

    The journal holds points 0 and 1 of a 4-point grid, so only points 2
    and 3 execute on resume; whatever fails there must carry index 3 and
    point 3's grid overrides, and faults scripted for a replayed point
    never fire.
    """

    def _journal_two_points(self, sweep, journal) -> None:
        with pytest.raises(SimulatedCrash):
            run_sweep(
                sweep,
                executor="serial",
                resume=journal,
                fault_plan=FaultPlan(crash_driver_after=2),
            )

    def test_supervised_manifest_names_the_grid_index(self, tmp_path):
        sweep = serial_sweep()
        reference = run_sweep(sweep, executor="serial")
        journal = tmp_path / "j.jsonl"
        self._journal_two_points(sweep, journal)
        out = run_sweep(
            sweep,
            executor=SUPERVISED_FAST,
            max_workers=1,
            resume=journal,
            fault_plan=FaultPlan(crash={0: 1, 3: 1}),
        )
        assert out.resumed == 2
        assert out.results == reference.results[:3]
        assert len(out.failures) == 1
        failure = out.failures[0]
        assert list(failure) == [
            "error", "attempts", "index", "name", "overrides", "spec",
        ]
        assert failure["index"] == 3
        assert failure["attempts"] == 1
        assert failure["overrides"] == {"workload.params.k": 8}
        assert failure["name"] == "rz[3]"
        assert ScenarioSpec.from_dict(failure["spec"]) == sweep.points()[3]

    @pytest.mark.parametrize("executor", ["serial", "process", "fused"])
    def test_point_error_names_the_grid_index(self, tmp_path, executor):
        sweep = Sweep(
            base=base_spec(trials=5),
            grid={"protocol.id": ["decay", "decay", "decay", "no-such-protocol"]},
        )
        journal = tmp_path / "j.jsonl"
        self._journal_two_points(sweep, journal)
        with pytest.raises(SweepPointError) as info:
            run_sweep(sweep, executor=executor, max_workers=2, resume=journal)
        error = info.value
        assert error.index == 3
        assert error.overrides == {"protocol.id": "no-such-protocol"}
        assert error.spec == sweep.points()[3]
        assert "sweep point 3" in str(error)


class TestCache:
    def test_warm_cache_runs_no_engine(self, tmp_path, monkeypatch):
        sweep = serial_sweep()
        cold = run_sweep(sweep, executor="serial", cache=tmp_path / "cache")
        assert cold.cache_hits == 0

        def explode(spec):
            raise AssertionError("engine invoked on a fully warm cache")

        monkeypatch.setattr(runner_module, "run_scenario", explode)
        warm = run_sweep(sweep, executor="serial", cache=tmp_path / "cache")
        assert warm.cache_hits == len(warm.results) == 4
        assert warm.results == cold.results

    def test_partial_cache_executes_only_misses(self, tmp_path):
        sweep = serial_sweep()
        reference = run_sweep(sweep, executor="serial")
        store = ResultStore(tmp_path / "cache")
        points = sweep.points()
        for point, result in list(zip(points, reference.results))[:2]:
            store.put(point, result)
        mixed = run_sweep(sweep, executor="serial", cache=store)
        assert mixed.cache_hits == 2
        assert mixed.results == reference.results

    def test_cache_works_through_fused_and_keeps_labels(self, tmp_path):
        sweep = fused_sweep()
        cold = run_sweep(sweep, executor="fused", cache=tmp_path / "cache")
        warm = run_sweep(sweep, executor="fused", cache=tmp_path / "cache")
        assert warm.cache_hits == 6
        assert warm.results == cold.results
        assert [r.engine for r in warm.results] == [
            r.engine for r in cold.results
        ]

    def test_resume_backfills_the_cache(self, tmp_path):
        sweep = serial_sweep()
        journal = tmp_path / "j.jsonl"
        with pytest.raises(SimulatedCrash):
            run_sweep(
                sweep,
                executor="serial",
                resume=journal,
                fault_plan=FaultPlan(crash_driver_after=2),
            )
        run_sweep(
            sweep, executor="serial", resume=journal, cache=tmp_path / "cache"
        )
        warm = run_sweep(sweep, executor="serial", cache=tmp_path / "cache")
        assert warm.cache_hits == 4


class TestFaultPlanGuards:
    def test_worker_faults_need_a_supervising_executor(self):
        with pytest.raises(ScenarioError, match="does not supervise workers"):
            run_sweep(
                serial_sweep(),
                executor="serial",
                fault_plan=FaultPlan(crash={0: 1}),
            )

    def test_driver_crash_leaves_no_slot_unjournaled(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        with pytest.raises(SimulatedCrash):
            run_sweep(
                serial_sweep(),
                executor="serial",
                resume=journal,
                fault_plan=FaultPlan(crash_driver_after=0),
            )
        lines = journal.read_text().splitlines()
        assert len(lines) == 1  # header only: the crash preceded point 0
        assert json.loads(lines[0])["kind"] == "header"


class TestOpenDurability:
    def test_truncated_journal_resumes_bit_identical(self, tmp_path):
        sweep = open_sweep()
        reference = run_sweep(sweep)
        journal = tmp_path / "j.jsonl"
        run_sweep(sweep, resume=journal)
        # Simulate a crash after the first point: drop the tail.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:2]) + "\n")
        resumed = run_sweep(sweep, resume=journal)
        assert resumed.resumed == 1
        assert resumed.results == reference.results

    def test_warm_cache_serves_open_points(self, tmp_path):
        sweep = open_sweep()
        cold = run_sweep(sweep, cache=tmp_path / "cache")
        warm = run_sweep(sweep, cache=tmp_path / "cache")
        assert warm.cache_hits == 3
        assert warm.results == cold.results
        assert "cache_hits=3" in warm.render()
