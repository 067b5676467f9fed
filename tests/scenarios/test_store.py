"""Tests for the durability layer: content-addressed store and journal."""

import json

import pytest

from repro.scenarios import (
    OpenScenarioSpec,
    ResultStore,
    ScenarioSpec,
    Sweep,
    SweepJournal,
    run_scenario,
    run_sweep,
    spec_key,
    sweep_key,
)
from repro.scenarios.spec import ScenarioError
from repro.scenarios import store as store_module


def base_spec(**overrides) -> ScenarioSpec:
    data = {
        "name": "st",
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


def open_spec() -> OpenScenarioSpec:
    return OpenScenarioSpec.from_dict(
        {
            "protocol": {"id": "decay"},
            "arrivals": {"family": "poisson", "params": {"rate": 0.2}},
            "channel": "cd",
            "n": 64,
            "trials": 4,
            "rounds": 64,
            "seed": 5,
        }
    )


class TestSpecKey:
    def test_round_trip_same_key(self):
        spec = base_spec()
        again = ScenarioSpec.from_dict(json.loads(spec.to_json()))
        assert spec_key(spec) == spec_key(again)

    def test_any_field_change_changes_key(self):
        spec = base_spec()
        for path, value in [
            ("seed", 101),
            ("trials", 41),
            ("workload.params.k", 9),
            ("channel.model", {"name": "jam-oblivious",
                               "params": {"budget": 4}}),
            ("protocol.params.one_shot", True),
        ]:
            assert spec_key(spec.override({path: value})) != spec_key(spec)

    def test_open_and_closed_specs_never_collide(self):
        # Same hash function, disjoint key spaces: the payload tags the
        # spec family.
        assert spec_key(open_spec()) != spec_key(base_spec())

    def test_open_spec_policy_changes_change_key(self):
        spec = open_spec()
        assert spec_key(spec.override({"retry.kind": "immediate"})) != spec_key(spec)
        assert spec_key(
            spec.override({"admission.kind": "shed",
                           "admission.params.threshold": 0.5})
        ) != spec_key(spec)

    def test_keys_of_existing_caches_still_resolve(self):
        """Keys pinned from an earlier build: caches and journals written
        before still resolve, so the key payload must not drift."""
        from repro.cli import EXAMPLE_SCENARIO
        from repro.scenarios import EXAMPLE_OPEN_SCENARIO

        assert spec_key(ScenarioSpec.from_dict(EXAMPLE_SCENARIO)) == (
            "4df879f89e6bd93f856047d5b53afefb28b7872ef1fff74d53847b73cd74835a"
        )
        assert spec_key(OpenScenarioSpec.from_dict(EXAMPLE_OPEN_SCENARIO)) == (
            "d8565dcc206d6ae0ba76b0bd36fff89c1b3f3d2c6d5fc4dd943c63e6a70abf04"
        )

    def test_schema_version_is_part_of_the_key(self, monkeypatch):
        spec = base_spec()
        before = spec_key(spec)
        monkeypatch.setattr(store_module, "SCHEMA_VERSION", 999)
        assert spec_key(spec) != before

    def test_sweep_key_pins_order_and_content(self):
        keys = [spec_key(base_spec(seed=s)) for s in (1, 2, 3)]
        assert sweep_key(keys) == sweep_key(list(keys))
        assert sweep_key(keys[::-1]) != sweep_key(keys)
        assert sweep_key(keys[:2]) != sweep_key(keys)


class TestResultStore:
    def test_memory_only_round_trip(self):
        spec = base_spec()
        result = run_scenario(spec)
        store = ResultStore()
        assert store.get(spec) is None
        store.put(spec, result)
        assert store.get(spec) == result
        assert store.stats.misses == 1
        assert store.stats.hits == 1
        assert store.stats.memory_hits == 1

    def test_disk_round_trip_across_instances(self, tmp_path):
        spec = base_spec()
        result = run_scenario(spec)
        ResultStore(tmp_path).put(spec, result)
        fresh = ResultStore(tmp_path)
        loaded = fresh.get(spec)
        assert loaded == result
        assert loaded.engine == result.engine
        assert fresh.stats.memory_hits == 0  # came from disk

    def test_entry_is_one_json_dumps_of_its_payload(self, tmp_path):
        spec = base_spec()
        result = run_scenario(spec)
        key = ResultStore(tmp_path).put(spec, result)
        entry = tmp_path / key[:2] / f"{key}.json"
        payload = {"schema": 1, "key": key, "result": result.to_dict()}
        assert entry.read_text() == json.dumps(payload)

    def test_open_results_round_trip(self, tmp_path):
        from repro.scenarios import run_open_scenario

        spec = open_spec()
        result = run_open_scenario(spec)
        ResultStore(tmp_path).put(spec, result)
        assert ResultStore(tmp_path).get(spec) == result

    def test_lru_evicts_oldest(self):
        store = ResultStore(memory_items=2)
        specs = [base_spec(seed=s) for s in (1, 2, 3)]
        result = run_scenario(specs[0])
        for spec in specs:
            store.put(spec, result)
        assert store.get(specs[0]) is None  # evicted (memory-only store)
        assert store.get(specs[2]) is not None

    def test_schema_stale_entry_misses_cleanly(self, tmp_path):
        spec = base_spec()
        store = ResultStore(tmp_path, memory_items=0)
        key = store.put(spec, run_scenario(spec))
        path = tmp_path / key[:2] / f"{key}.json"
        payload = json.loads(path.read_text())
        payload["schema"] = 0
        path.write_text(json.dumps(payload))
        assert store.get(spec) is None

    def test_truncated_entry_misses_cleanly(self, tmp_path):
        spec = base_spec()
        store = ResultStore(tmp_path, memory_items=0)
        key = store.put(spec, run_scenario(spec))
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        assert store.get(spec) is None

    def test_coerce(self, tmp_path):
        store = ResultStore()
        assert ResultStore.coerce(store) is store
        assert ResultStore.coerce(None) is None
        assert ResultStore.coerce(tmp_path).cache_dir == tmp_path
        with pytest.raises(ScenarioError, match="cache must be"):
            ResultStore.coerce(42)


class TestSweepJournal:
    def _journal(self, path, keys, **overrides):
        kwargs = dict(
            sweep=sweep_key(keys),
            points=len(keys),
            point_keys=keys,
        )
        kwargs.update(overrides)
        return SweepJournal(path, **kwargs)

    def test_append_then_replay(self, tmp_path):
        specs = [base_spec(seed=s) for s in (1, 2)]
        keys = [spec_key(spec) for spec in specs]
        results = [run_scenario(spec) for spec in specs]
        path = tmp_path / "j.jsonl"
        with self._journal(path, keys) as journal:
            assert journal.replayed == {}
            journal.append([(0, results[0].to_dict())])
        with self._journal(path, keys) as journal:
            assert journal.replayed == {0: results[0]}
            journal.append([(1, results[1].to_dict())])
        with self._journal(path, keys) as journal:
            assert journal.replayed == {0: results[0], 1: results[1]}

    def test_group_append_is_one_line(self, tmp_path):
        specs = [base_spec(seed=s) for s in (1, 2, 3)]
        keys = [spec_key(spec) for spec in specs]
        results = [run_scenario(spec) for spec in specs]
        path = tmp_path / "j.jsonl"
        with self._journal(path, keys) as journal:
            journal.append([(i, results[i].to_dict()) for i in range(3)])
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # header + one atomic group checkpoint
        with self._journal(path, keys) as journal:
            assert sorted(journal.replayed) == [0, 1, 2]

    def test_torn_final_line_is_dropped(self, tmp_path):
        specs = [base_spec(seed=s) for s in (1, 2)]
        keys = [spec_key(spec) for spec in specs]
        results = [run_scenario(spec) for spec in specs]
        path = tmp_path / "j.jsonl"
        with self._journal(path, keys) as journal:
            journal.append([(0, results[0].to_dict())])
            journal.append([(1, results[1].to_dict())])
        text = path.read_text()
        # Simulate a crash mid-append: cut the final line in half.
        torn = text[: len(text) - len(text.splitlines()[-1]) // 2 - 1]
        path.write_text(torn)
        with self._journal(path, keys) as journal:
            assert sorted(journal.replayed) == [0]

    def test_interior_corruption_is_an_error(self, tmp_path):
        specs = [base_spec(seed=s) for s in (1, 2)]
        keys = [spec_key(spec) for spec in specs]
        results = [run_scenario(spec) for spec in specs]
        path = tmp_path / "j.jsonl"
        with self._journal(path, keys) as journal:
            journal.append([(0, results[0].to_dict())])
            journal.append([(1, results[1].to_dict())])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # torn but NOT final
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ScenarioError, match="corrupt at line 2"):
            self._journal(path, keys)

    def test_different_sweep_is_refused(self, tmp_path):
        keys = [spec_key(base_spec(seed=s)) for s in (1, 2)]
        other = [spec_key(base_spec(seed=s)) for s in (3, 4)]
        path = tmp_path / "j.jsonl"
        self._journal(path, keys).close()
        with pytest.raises(ScenarioError, match="different sweep"):
            self._journal(path, other)

    def test_future_schema_is_refused(self, tmp_path):
        keys = [spec_key(base_spec())]
        path = tmp_path / "j.jsonl"
        self._journal(path, keys).close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = 999
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ScenarioError, match="schema"):
            self._journal(path, keys)

    def test_mismatched_point_key_is_refused(self, tmp_path):
        specs = [base_spec(seed=s) for s in (1, 2)]
        keys = [spec_key(spec) for spec in specs]
        path = tmp_path / "j.jsonl"
        with self._journal(path, keys) as journal:
            journal.append([(0, run_scenario(specs[0]).to_dict())])
        swapped = [keys[1], keys[0]]
        # Forge the header so only the per-entry key check can catch it.
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["sweep"] = sweep_key(swapped)
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ScenarioError, match="mismatched spec key"):
            self._journal(path, swapped)

    @pytest.mark.parametrize(
        "malformed",
        [
            lambda key, result: {"entries": {"index": 0}},
            lambda key, result: {"entries": [5]},
            lambda key, result: {"entries": [{"key": key, "result": result}]},
            lambda key, result: {"entries": [{"index": "0", "key": key, "result": result}]},
            lambda key, result: {"entries": [{"index": 0.5, "key": key, "result": result}]},
            lambda key, result: {"entries": [{"index": 0, "key": key}]},
            lambda key, result: {"entries": [{"index": 0, "key": key, "result": {}}]},
            lambda key, result: {
                "entries": [{"index": 0, "key": key, "result": {"spec": result["spec"]}}]
            },
        ],
        ids=[
            "entries-not-a-list",
            "entry-not-a-mapping",
            "missing-index",
            "string-index",
            "float-index",
            "missing-result",
            "result-without-spec",
            "result-without-fields",
        ],
    )
    def test_malformed_checkpoint_records_name_path_and_line(self, tmp_path, malformed):
        spec = base_spec(seed=1)
        keys = [spec_key(spec)]
        path = tmp_path / "j.jsonl"
        self._journal(path, keys).close()
        record = {"kind": "checkpoint", **malformed(keys[0], run_scenario(spec).to_dict())}
        with path.open("a") as stream:
            stream.write(json.dumps(record) + "\n")
        with pytest.raises(ScenarioError, match=r"journal .*j\.jsonl line 2"):
            self._journal(path, keys)


def test_a_checkpoint_writes_each_result_once_to_journal_and_store(tmp_path):
    """Journal lines and store entries hold the same ``to_dict()`` bytes."""
    sweep = Sweep(base_spec(), {"trials": [8, 12]})
    journal, cache = tmp_path / "run.jsonl", tmp_path / "cache"
    results = run_sweep(sweep, resume=journal, cache=cache).results
    keys = [spec_key(point) for point in sweep.points()]
    header = {"kind": "header", "schema": 1, "sweep": sweep_key(keys), "points": 2}
    checkpoints = [
        {
            "kind": "checkpoint",
            "entries": [{"index": index, "key": keys[index], "result": result.to_dict()}],
        }
        for index, result in enumerate(results)
    ]
    lines = [json.dumps(record) + "\n" for record in [header, *checkpoints]]
    assert journal.read_text() == "".join(lines)
    for key, result in zip(keys, results):
        payload = {"schema": 1, "key": key, "result": result.to_dict()}
        assert (cache / key[:2] / f"{key}.json").read_text() == json.dumps(payload)
