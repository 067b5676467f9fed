"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXAMPLE_SCENARIO, EXAMPLE_SWEEP, build_parser, main
from repro.experiments.base import ExperimentResult


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_arguments(self):
        args = build_parser().parse_args(
            ["run", "SRC-CODE", "--quick", "--trials", "50", "--n", "1024"]
        )
        assert args.experiments == ["SRC-CODE"]
        assert args.quick and args.trials == 50 and args.n == 1024

    def test_report_command(self):
        args = build_parser().parse_args(["report", "--seed", "9"])
        assert args.command == "report" and args.seed == 9

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "T1-NCD-UP" in output and "SSF" in output

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "BOGUS"]) == 2
        assert "known ids" in capsys.readouterr().err

    def test_run_quick_experiment(self, capsys):
        code = main(
            ["run", "SRC-CODE", "--quick", "--n", "1024", "--trials", "100"]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "SRC-CODE" in output
        assert "[PASS]" in output

    def test_run_with_csv(self, capsys):
        code = main(
            [
                "run",
                "LEMMA-PROBS",
                "--quick",
                "--n",
                "1024",
                "--trials",
                "100",
                "--csv",
            ]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "," in output  # CSV block emitted

    def test_run_validates_all_ids_before_running_any(self, capsys):
        """A typo'd id must fail the whole request up front, not midway."""
        code = main(["run", "SRC-CODE", "BOGUS", "--quick"])
        captured = capsys.readouterr()
        assert code == 2
        assert "BOGUS" in captured.err and "known ids" in captured.err
        assert "== SRC-CODE" not in captured.out  # nothing ran


def _stub_result(experiment_id: str, passed: bool) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"stub {experiment_id}",
        reference="stub reference",
        headers=["x"],
        rows=[[1]],
        checks={"stub check": passed},
    )


class TestReport:
    """The report command, against a stubbed registry (fast and exact).

    The CLI resolves the registry names from
    :mod:`repro.experiments.registry` when a command runs, so the stubs
    patch that module.
    """

    @pytest.fixture
    def stub_registry(self, monkeypatch):
        registry = {
            "GOOD": ((lambda config: _stub_result("GOOD", True)), "passes"),
            "BAD": ((lambda config: _stub_result("BAD", False)), "fails"),
        }
        import repro.experiments.registry as experiments

        monkeypatch.setattr(experiments, "EXPERIMENTS", registry)
        monkeypatch.setattr(experiments, "experiment_ids", lambda: list(registry))
        monkeypatch.setattr(
            experiments,
            "run_experiment",
            lambda eid, config: registry[eid][0](config),
        )
        return registry

    def test_all_pass_exits_zero(self, stub_registry, capsys, monkeypatch):
        import repro.experiments.registry as experiments

        monkeypatch.setattr(experiments, "experiment_ids", lambda: ["GOOD"])
        assert main(["report", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] GOOD" in out
        assert "all experiments reproduce" in out

    def test_failure_exits_one_and_names_failures(self, stub_registry, capsys):
        assert main(["report", "--quick"]) == 1
        out = capsys.readouterr().out
        assert "[PASS] GOOD" in out and "[FAIL] BAD" in out
        assert "failed: stub check" in out
        assert "1 experiment(s) failed: BAD" in out

    def test_report_forwards_config(self, capsys, monkeypatch):
        import repro.experiments.registry as experiments

        seen = {}

        def capture(eid, config):
            seen["config"] = config
            return _stub_result(eid, True)

        monkeypatch.setattr(experiments, "experiment_ids", lambda: ["ONLY"])
        monkeypatch.setattr(experiments, "run_experiment", capture)
        assert main(["report", "--quick", "--n", "512", "--seed", "3"]) == 0
        config = seen["config"]
        assert config.n == 512 and config.seed == 3 and config.quick


class TestScenarioCommands:
    def test_example_is_runnable_json(self, capsys):
        assert main(["scenario", "example"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == EXAMPLE_SCENARIO

    def test_run_example_spec(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec = dict(EXAMPLE_SCENARIO, trials=80, n=256, max_rounds=128)
        spec_path.write_text(json.dumps(spec))
        assert main(["scenario", "run", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "engine:" in out and "success:" in out

    def test_run_json_output_round_trips(self, tmp_path, capsys):
        from repro.scenarios import ScenarioResult

        spec_path = tmp_path / "spec.json"
        spec = dict(EXAMPLE_SCENARIO, trials=50, n=256, max_rounds=128)
        spec_path.write_text(json.dumps(spec))
        assert main(["scenario", "run", str(spec_path), "--json"]) == 0
        result = ScenarioResult.from_dict(json.loads(capsys.readouterr().out))
        assert result.success.trials == 50

    def test_sweep_example(self, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.json"
        sweep = json.loads(json.dumps(EXAMPLE_SWEEP))
        sweep["base"].update(trials=40, n=256, max_rounds=128)
        sweep_path.write_text(json.dumps(sweep))
        assert main(["scenario", "sweep", str(sweep_path)]) == 0
        out = capsys.readouterr().out
        assert "4 point(s)" in out and "executor=serial" in out

    def test_sweep_process_executor_matches_serial(self, tmp_path, capsys):
        sweep_path = tmp_path / "sweep.json"
        sweep = json.loads(json.dumps(EXAMPLE_SWEEP))
        sweep["base"].update(trials=40, n=256, max_rounds=128)
        sweep["grid"] = {"workload.params.ranges": [[2], [2, 4]]}
        sweep_path.write_text(json.dumps(sweep))
        assert main(["scenario", "sweep", str(sweep_path), "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert (
            main(
                [
                    "scenario",
                    "sweep",
                    str(sweep_path),
                    "--executor",
                    "process",
                    "--workers",
                    "2",
                    "--json",
                ]
            )
            == 0
        )
        pooled = json.loads(capsys.readouterr().out)

        def strip(payload):
            payload = dict(payload, executor=None, elapsed_seconds=None)
            payload["results"] = [
                dict(row, elapsed_seconds=None) for row in payload["results"]
            ]
            return payload

        assert strip(serial) == strip(pooled)

    def test_sweep_fused_executor_matches_serial_statistics(
        self, tmp_path, capsys
    ):
        sweep_path = tmp_path / "sweep.json"
        sweep = json.loads(json.dumps(EXAMPLE_SWEEP))
        sweep["base"].update(trials=40, n=256, max_rounds=128)
        sweep_path.write_text(json.dumps(sweep))
        assert main(["scenario", "sweep", str(sweep_path), "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert (
            main(
                [
                    "scenario",
                    "sweep",
                    str(sweep_path),
                    "--executor",
                    "fused",
                    "--json",
                ]
            )
            == 0
        )
        fused = json.loads(capsys.readouterr().out)
        assert fused["executor"] == "fused"
        engines = {row["engine"] for row in fused["results"]}
        assert engines == {"fused-schedule"}

        def strip(payload):
            payload = dict(payload, executor=None, elapsed_seconds=None)
            payload["results"] = [
                dict(
                    row,
                    elapsed_seconds=None,
                    engine=None,
                    metadata=dict(row["metadata"], engine=None),
                )
                for row in payload["results"]
            ]
            return payload

        assert strip(serial) == strip(fused)

    def test_bad_spec_reports_scenario_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(dict(EXAMPLE_SCENARIO, protocol="warp-drive")))
        assert main(["scenario", "run", str(spec_path)]) == 2
        assert "scenario error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["scenario", "run", "SPEC"], "'one_shot'"),
            (["scenario", "run", "OPEN"], "'rate'"),
            (
                ["scenario", "sweep", "SWEEP", "--executor", "supervised",
                 "--inject-faults", '{"crash": 5}'],
                "'crash'",
            ),
        ],
    )
    def test_malformed_nested_values_exit_2_naming_the_field(
        self, tmp_path, capsys, argv, field
    ):
        from repro.scenarios import EXAMPLE_OPEN_SCENARIO

        spec = json.loads(json.dumps(EXAMPLE_SCENARIO))
        spec["protocol"]["params"]["one_shot"] = "false"
        open_spec = json.loads(json.dumps(EXAMPLE_OPEN_SCENARIO))
        open_spec["arrivals"]["params"]["rate"] = "0.2"
        paths = {}
        for name, payload in (("SPEC", spec), ("OPEN", open_spec), ("SWEEP", EXAMPLE_SWEEP)):
            paths[name] = tmp_path / f"{name.lower()}.json"
            paths[name].write_text(json.dumps(payload))
        assert main([str(paths.get(arg, arg)) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    def test_refused_batch_request_exits_2_naming_batch(self, tmp_path, capsys):
        """No engine runs a player point under a crash that rejoins with
        ``batch`` insisted on: a scenario error, not a traceback."""
        from repro.cli import EXAMPLE_PLAYER_SCENARIO

        spec = json.loads(json.dumps(EXAMPLE_PLAYER_SCENARIO))
        spec["batch"] = True
        spec["channel"] = {
            "collision_detection": True,
            "model": {
                "name": "crash",
                "params": {"probability": 0.1, "rejoin_after": 3},
            },
        }
        spec_path = tmp_path / "player.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["scenario", "run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "'batch'" in err and "Traceback" not in err

    def test_missing_spec_file(self, capsys):
        assert main(["scenario", "run", "/does/not/exist.json"]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_stdin_spec(self, monkeypatch, capsys):
        import io

        spec = dict(EXAMPLE_SCENARIO, trials=30, n=256, max_rounds=128)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
        assert main(["scenario", "run", "-"]) == 0
        assert "success:" in capsys.readouterr().out


class TestAdversaryCli:
    """The adversary example payload and channel-model error paths."""

    def test_adversary_example_is_runnable_json(self, capsys):
        from repro.scenarios import EXAMPLE_ADVERSARY_SWEEP, Sweep

        assert main(["scenario", "example", "--adversary"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == EXAMPLE_ADVERSARY_SWEEP
        assert payload["base"]["channel"]["model"]["name"] == "jam-oblivious"
        assert "channel.model.params.budget" in payload["grid"]
        # The payload must expand cleanly into points.
        sweep = Sweep.from_dict(payload)
        assert len(sweep.points()) > 1

    def test_example_kinds_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "example", "--adversary", "--cd-grid"]
            )

    def test_adversary_sweep_runs_fused(self, capsys):
        """A thinned adversary grid executes end to end through the
        fused executor and stamps fused engine labels."""
        from repro.scenarios import EXAMPLE_ADVERSARY_SWEEP

        sweep = json.loads(json.dumps(EXAMPLE_ADVERSARY_SWEEP))
        sweep["base"].update(trials=30, n=256, max_rounds=256)
        sweep["grid"] = {
            "channel.model.params.budget": [0, 4],
            "workload.params.ranges": [[2], [2, 4]],
        }
        import io

        monkey_stdin = io.StringIO(json.dumps(sweep))
        import sys as _sys

        original = _sys.stdin
        _sys.stdin = monkey_stdin
        try:
            assert main(["scenario", "sweep", "-", "--executor", "fused"]) == 0
        finally:
            _sys.stdin = original
        out = capsys.readouterr().out
        assert "fused-" in out

    def test_malformed_model_fails_fast_with_exit_2(self, tmp_path, capsys):
        spec = dict(
            EXAMPLE_SCENARIO,
            trials=30,
            n=256,
            channel={
                "collision_detection": False,
                "model": {"name": "warp-field"},
            },
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["scenario", "run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "scenario error" in err
        assert "unknown channel model" in err
        assert "jam-oblivious" in err  # the message lists the vocabulary

    def test_out_of_range_model_param_fails_fast(self, tmp_path, capsys):
        spec = dict(
            EXAMPLE_SCENARIO,
            channel={
                "collision_detection": False,
                "model": {
                    "name": "noise",
                    "params": {"success_erasure": 2.0},
                },
            },
        )
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["scenario", "run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "scenario error" in err and "[0, 1]" in err

    def test_malformed_model_in_sweep_fails_before_any_point(
        self, tmp_path, capsys
    ):
        sweep = {
            "base": dict(
                EXAMPLE_SCENARIO,
                channel={
                    "collision_detection": False,
                    "model": {"name": "noise", "params": {"loudness": 11}},
                },
            ),
            "grid": {"workload.params.ranges": [[2], [4]]},
        }
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep))
        assert main(["scenario", "sweep", str(sweep_path)]) == 2
        err = capsys.readouterr().err
        assert "scenario error" in err and "unknown parameter" in err


class TestOpenCli:
    """Open-system specs through ``scenario run``, ``sweep`` and ``example``."""

    def _quick(self, payload):
        quick = json.loads(json.dumps(payload))
        quick.update(trials=4, rounds=96, warmup=16)
        return quick

    def test_open_example_is_runnable_json(self, capsys):
        from repro.scenarios import EXAMPLE_OPEN_SCENARIO, OpenScenarioSpec

        assert main(["scenario", "example", "--open"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == EXAMPLE_OPEN_SCENARIO
        OpenScenarioSpec.from_dict(payload)  # loads cleanly

    def test_open_example_sweep_expands(self, capsys):
        from repro.scenarios import EXAMPLE_OPEN_SWEEP, Sweep

        assert main(["scenario", "example", "--open-sweep"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == EXAMPLE_OPEN_SWEEP
        assert len(Sweep.from_dict(payload).points()) == 4

    def test_open_example_retry_grid_expands(self, capsys):
        from repro.scenarios import EXAMPLE_OPEN_RETRY_SWEEP, Sweep

        assert main(["scenario", "example", "--open-retry"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == EXAMPLE_OPEN_RETRY_SWEEP
        points = Sweep.from_dict(payload).points()
        assert {p.retry.kind for p in points} == {
            "give-up", "immediate", "backoff",
        }

    def test_open_retry_sweep_reports_lifecycle_counters(
        self, tmp_path, capsys
    ):
        """The CI smoke path: retry sweep JSON carries the new counters."""
        from repro.scenarios import EXAMPLE_OPEN_RETRY_SWEEP

        sweep = json.loads(json.dumps(EXAMPLE_OPEN_RETRY_SWEEP))
        sweep["base"].update(trials=4, rounds=96, warmup=16)
        sweep["grid"] = {
            "retry.kind": ["immediate", "backoff"],
            "arrivals.params.rate": [0.5],
        }
        sweep_path = tmp_path / "retry.json"
        sweep_path.write_text(json.dumps(sweep))
        assert main(["scenario", "sweep", str(sweep_path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["results"]) == 2
        for row in report["results"]:
            assert row["engine"] == "open-schedule"
            assert row["summary"]["retried"] > 0
            assert "abandoned" in row["summary"]

    def test_open_run_renders_latency(self, tmp_path, capsys):
        from repro.scenarios import EXAMPLE_OPEN_SCENARIO

        spec_path = tmp_path / "open.json"
        spec_path.write_text(json.dumps(self._quick(EXAMPLE_OPEN_SCENARIO)))
        assert main(["scenario", "run", str(spec_path)]) == 0
        output = capsys.readouterr().out
        assert "open-schedule" in output and "p99" in output

    def test_open_run_json_equals_the_library_run(self, tmp_path, capsys):
        from repro.scenarios import (
            EXAMPLE_OPEN_SCENARIO,
            OpenScenarioSpec,
            run_open_scenario,
        )

        spec_path = tmp_path / "open.json"
        spec_path.write_text(json.dumps(EXAMPLE_OPEN_SCENARIO))
        assert main(["scenario", "run", str(spec_path), "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        direct = run_open_scenario(
            OpenScenarioSpec.from_dict(EXAMPLE_OPEN_SCENARIO)
        ).to_dict()
        assert dict(printed, elapsed_seconds=None) == dict(
            direct, elapsed_seconds=None
        )

    def test_open_run_json_round_trips(self, tmp_path, capsys):
        from repro.scenarios import EXAMPLE_OPEN_SCENARIO, OpenScenarioResult

        spec_path = tmp_path / "open.json"
        spec_path.write_text(json.dumps(self._quick(EXAMPLE_OPEN_SCENARIO)))
        assert main(["scenario", "run", str(spec_path), "--json"]) == 0
        result = OpenScenarioResult.from_json(capsys.readouterr().out)
        assert result.engine == "open-schedule"
        assert result.store.completed > 0

    def test_open_sweep_renders_the_load_curve(self, tmp_path, capsys):
        from repro.scenarios import EXAMPLE_OPEN_SWEEP

        sweep = json.loads(json.dumps(EXAMPLE_OPEN_SWEEP))
        sweep["base"].update(trials=4, rounds=96, warmup=16)
        sweep["grid"] = {"arrivals.params.rate": [0.05, 0.2]}
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep))
        assert main(["scenario", "sweep", str(sweep_path)]) == 0
        table = capsys.readouterr().out
        assert "sweep: 2 point(s), executor=serial" in table
        assert "open-schedule" in table and "p99" in table

    def test_scenario_sweep_runs_an_open_grid_on_the_process_pool(
        self, tmp_path, capsys
    ):
        from repro.scenarios import EXAMPLE_OPEN_SWEEP

        sweep = json.loads(json.dumps(EXAMPLE_OPEN_SWEEP))
        sweep["base"].update(trials=4, rounds=96, warmup=16)
        sweep["grid"] = {"arrivals.params.rate": [0.05, 0.2]}
        sweep_path = tmp_path / "sweep.json"
        sweep_path.write_text(json.dumps(sweep))
        assert main(["scenario", "sweep", str(sweep_path), "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        argv = ["scenario", "sweep", str(sweep_path), "--executor", "process"]
        assert main(argv + ["--workers", "2", "--json"]) == 0
        pooled = json.loads(capsys.readouterr().out)
        assert pooled["executor"] == "process" and pooled["failures"] == []

        def points(payload):
            return [dict(row, elapsed_seconds=None) for row in payload["results"]]

        assert points(pooled) == points(serial)

    def test_open_bad_spec_exits_two(self, tmp_path, capsys):
        from repro.scenarios import EXAMPLE_OPEN_SCENARIO

        bad = dict(EXAMPLE_OPEN_SCENARIO, arrivals={"family": "fractal"})
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(json.dumps(bad))
        assert main(["scenario", "run", str(spec_path)]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_open_spec_without_arrivals_names_it(self, tmp_path, capsys):
        from repro.scenarios import EXAMPLE_OPEN_SCENARIO

        spec = {k: v for k, v in EXAMPLE_OPEN_SCENARIO.items() if k != "arrivals"}
        spec_path = tmp_path / "no_arrivals.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["scenario", "run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "open scenario spec needs 'arrivals'" in err

    def test_closed_spec_with_an_open_field_name_stays_closed(self, tmp_path, capsys):
        spec = {k: v for k, v in EXAMPLE_SCENARIO.items() if k != "max_rounds"}
        spec_path = tmp_path / "rounds.json"
        spec_path.write_text(json.dumps(dict(spec, rounds=512)))
        assert main(["scenario", "run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario spec field(s) 'rounds'; allowed:" in err

    def test_open_missing_spec_file(self, capsys):
        assert main(["scenario", "run", "/does/not/exist.json"]) == 2
        assert "cannot read spec" in capsys.readouterr().err

    def test_open_stdin_spec(self, monkeypatch, capsys):
        import io

        from repro.scenarios import EXAMPLE_OPEN_SCENARIO

        payload = self._quick(EXAMPLE_OPEN_SCENARIO)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        assert main(["scenario", "run", "-"]) == 0
        assert "latency:" in capsys.readouterr().out
