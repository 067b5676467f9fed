"""Result records refuse counts no run can produce.

Every ``int`` field of a record is a count, and a success count cannot
exceed its trials.  The gate sits in the record's constructor, so a
record built in code and one read back from a journal line or a store
entry pass the same check: an edited journal fails its resume naming
the point, and an edited store entry is a clean miss that is computed
again.  An open result's saved latency summary must also be the one its
store gives, so an edit to it fails the same way.
"""

import dataclasses
import json

import pytest

from repro.analysis.metrics import ProportionEstimate, Summary
from repro.cli import EXAMPLE_SWEEP, main
from repro.opensys import LatencyStore, LatencySummary
from repro.scenarios import (
    EXAMPLE_OPEN_SCENARIO,
    EXAMPLE_OPEN_SWEEP,
    OpenScenarioResult,
    OpenScenarioSpec,
    ResultStore,
    Sweep,
    run_sweep,
    spec_key,
)

LATENCY_COUNTS = [
    "completed",
    "arrivals",
    "dropped",
    "timed_out",
    "in_flight",
    "round_slots",
    "attempts",
    "retried",
    "abandoned",
    "in_orbit",
]


def small_sweep() -> dict:
    sweep = json.loads(json.dumps(EXAMPLE_SWEEP))
    sweep["base"].update(trials=40, n=256, max_rounds=128)
    return sweep


class TestRefusedFields:
    @pytest.mark.parametrize(
        "successes, trials, field",
        [(5000, 1000, "successes"), (-1, 10, "successes"), (0, -1, "trials")],
    )
    def test_proportion_estimate(self, successes, trials, field):
        with pytest.raises(ValueError, match=field):
            ProportionEstimate(successes=successes, trials=trials)
        with pytest.raises(ValueError, match=field):
            ProportionEstimate.from_dict({"successes": successes, "trials": trials})

    def test_summary_count(self):
        data = Summary.empty().to_dict()
        with pytest.raises(ValueError, match="count"):
            Summary.from_dict({**data, "count": -3})
        with pytest.raises(ValueError, match="count"):
            dataclasses.replace(Summary.empty(), count=-3)

    @pytest.mark.parametrize("field", LATENCY_COUNTS)
    def test_latency_summary_counts(self, field):
        summary = LatencyStore().summary()
        with pytest.raises(ValueError, match=field):
            LatencySummary.from_dict({**summary.to_dict(), field: -1})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(summary, **{field: -1})

    @pytest.mark.parametrize("counter", LatencyStore.COUNTERS)
    def test_latency_store_counters(self, counter):
        with pytest.raises(ValueError, match=counter):
            LatencyStore.from_dict({**LatencyStore().to_dict(), counter: -1})

    def test_the_edges_are_accepted(self):
        assert ProportionEstimate(successes=7, trials=7).rate == 1.0
        assert ProportionEstimate(successes=0, trials=0).trials == 0
        assert Summary.empty().count == 0
        assert LatencySummary.from_dict(LatencyStore().summary().to_dict()).completed == 0


class TestEditedJournal:
    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda result: result["success"].update(successes=5000), "successes"),
            (lambda result: result["rounds"].update(count=-3), "count"),
        ],
        ids=["successes-over-trials", "negative-count"],
    )
    def test_resume_fails_naming_the_point(self, tmp_path, capsys, edit, field):
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(small_sweep()))
        journal = tmp_path / "sweep.journal"
        argv = ["scenario", "sweep", str(sweep_path), "--resume", str(journal)]
        assert main(argv) == 0
        lines = journal.read_text().splitlines()
        for number, line in enumerate(lines[1:], start=1):
            record = json.loads(line)
            entry = record["entries"][0]
            if entry["index"] == 0:
                edit(entry["result"])
                lines[number] = json.dumps(record)
        journal.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unreadable result for point 0" in err
        assert field in err


class TestEditedStoreEntry:
    def test_closed_entry_misses_and_the_point_runs_again(self, tmp_path):
        sweep = Sweep.from_dict(small_sweep())
        cold = run_sweep(sweep, executor="serial", cache=tmp_path)
        point = sweep.points()[0]
        key = spec_key(point)
        entry = tmp_path / key[:2] / f"{key}.json"
        payload = json.loads(entry.read_text())
        payload["result"]["success"]["successes"] = 5000
        entry.write_text(json.dumps(payload))
        assert ResultStore(tmp_path, memory_items=0).get(point) is None
        warm = run_sweep(sweep, executor="serial", cache=tmp_path)
        assert warm.cache_hits == len(warm.results) - 1
        assert warm.results == cold.results

    def test_open_entry_with_a_negative_counter_misses(self, tmp_path):
        from repro.scenarios import run_open_scenario

        spec = OpenScenarioSpec.from_dict(
            dict(EXAMPLE_OPEN_SCENARIO, trials=4, rounds=64, warmup=8)
        )
        store = ResultStore(tmp_path, memory_items=0)
        key = store.put(spec, run_open_scenario(spec))
        entry = tmp_path / key[:2] / f"{key}.json"
        payload = json.loads(entry.read_text())
        payload["result"]["store"]["dropped"] = -3
        entry.write_text(json.dumps(payload))
        assert store.get(spec) is None


class TestEditedOpenSummary:
    """An open result's saved ``summary`` must be the one its store gives.

    The summary is derived from the store, so a result read back from a
    store entry or a journal line (``OpenScenarioResult.from_saved``)
    checks the saved copy instead of ignoring it: an edit the record
    gate lets through (a larger p99) is refused as firmly as one it
    refuses (a negative count).  ``from_dict`` rebuilds the result from
    its store alone.  The cases edit the first point of the open sweep
    example.
    """

    EDITS = [
        ({"dropped": -3, "p99": 12345.0}, "dropped"),
        ({"p99": 12345.0}, "p99"),
        ({"completed": 1}, "completed"),
    ]
    IDS = ["negative-count-and-p99", "p99", "completed"]

    @staticmethod
    def open_result() -> dict:
        from repro.scenarios import run_open_scenario

        spec = Sweep.from_dict(EXAMPLE_OPEN_SWEEP).points()[0]
        return run_open_scenario(spec).to_dict()

    @pytest.mark.parametrize("edit, field", EDITS, ids=IDS)
    def test_from_saved_names_the_first_differing_field(self, edit, field):
        data = self.open_result()
        data["summary"].update(edit)
        with pytest.raises(ValueError, match=field):
            OpenScenarioResult.from_saved(data)

    def test_from_dict_reads_the_store_alone(self):
        data = self.open_result()
        expected = OpenScenarioResult.from_saved(data)
        data["summary"].update(p99=12345.0)
        assert OpenScenarioResult.from_dict(data) == expected

    def test_a_result_without_a_summary_is_read(self):
        data = self.open_result()
        expected = OpenScenarioResult.from_dict(data)
        del data["summary"]
        assert OpenScenarioResult.from_saved(data) == expected

    def test_null_statistics_match_their_store(self):
        from repro.scenarios import run_open_scenario

        spec = OpenScenarioSpec.from_dict(
            dict(EXAMPLE_OPEN_SCENARIO, trials=1, rounds=2, warmup=1)
        )
        result = run_open_scenario(spec)
        data = json.loads(result.to_json())
        assert data["summary"]["completed"] == 0 and data["summary"]["p50"] is None
        assert OpenScenarioResult.from_saved(data) == result

    @pytest.mark.parametrize("edit, field", EDITS[:2], ids=IDS[:2])
    def test_resume_fails_naming_the_point(self, tmp_path, capsys, edit, field):
        sweep_path = tmp_path / "open-sweep.json"
        sweep_path.write_text(json.dumps(EXAMPLE_OPEN_SWEEP))
        journal = tmp_path / "open-sweep.journal"
        argv = ["scenario", "sweep", str(sweep_path), "--resume", str(journal)]
        assert main(argv) == 0
        lines = journal.read_text().splitlines()
        for number, line in enumerate(lines[1:], start=1):
            record = json.loads(line)
            for entry in record["entries"]:
                if entry["index"] == 0:
                    entry["result"]["summary"].update(edit)
            lines[number] = json.dumps(record)
        journal.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "unreadable result for point 0" in err
        assert field in err

    def test_store_entry_misses_and_the_point_runs_again(self, tmp_path):
        sweep = Sweep.from_dict(EXAMPLE_OPEN_SWEEP)
        cold = run_sweep(sweep, executor="serial", cache=tmp_path)
        point = sweep.points()[0]
        key = spec_key(point)
        entry = tmp_path / key[:2] / f"{key}.json"
        payload = json.loads(entry.read_text())
        payload["result"]["summary"].update(dropped=-3, p99=12345.0)
        entry.write_text(json.dumps(payload))
        assert ResultStore(tmp_path, memory_items=0).get(point) is None
        warm = run_sweep(sweep, executor="serial", cache=tmp_path)
        assert warm.cache_hits == len(warm.results) - 1
        assert warm.results == cold.results
