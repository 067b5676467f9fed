"""Tests for the open-system scenario layer: specs, runs, and sweeps."""

import json

import pytest

from repro.opensys import ENGINE_OPEN_HISTORY, ENGINE_OPEN_SCHEDULE
from repro.scenarios import (
    AdmissionSpec,
    ArrivalSpec,
    ChannelSpec,
    OpenScenarioResult,
    OpenScenarioSpec,
    ProtocolSpec,
    RetrySpec,
    ScenarioError,
    Sweep,
    SweepResult,
    WorkloadSpec,
    make_supervised_executor,
    resolve_open_scenario,
    run_open_scenario,
    run_sweep,
)
from repro.scenarios import (
    EXAMPLE_OPEN_RETRY_SWEEP,
    EXAMPLE_OPEN_SCENARIO,
    EXAMPLE_OPEN_SWEEP,
)
from repro.scenarios.workloads import resolve_workload


def spec(**overrides) -> OpenScenarioSpec:
    base = dict(
        protocol=ProtocolSpec(id="decay"),
        arrivals=ArrivalSpec(family="poisson", params={"rate": 0.15}),
        channel=ChannelSpec(collision_detection=False),
        n=128,
        trials=8,
        rounds=192,
        warmup=32,
        capacity=64,
        seed=2021,
    )
    base.update(overrides)
    return OpenScenarioSpec(**base)


class TestArrivalSpec:
    def test_validates_eagerly(self):
        with pytest.raises(ScenarioError, match="unknown arrival family"):
            ArrivalSpec(family="fractal")
        with pytest.raises(ScenarioError, match="requires parameter"):
            ArrivalSpec(family="poisson")
        with pytest.raises(ScenarioError, match="non-empty family"):
            ArrivalSpec(family="")

    def test_string_shorthand_needs_no_params(self):
        # No family is parameterless today, so shorthand still validates.
        with pytest.raises(ScenarioError):
            ArrivalSpec.from_dict("poisson")

    def test_round_trip(self):
        arrival = ArrivalSpec(family="zipf-hotspot", params={"rate": 0.2})
        assert ArrivalSpec.from_dict(arrival.to_dict()) == arrival


class TestPolicySpecs:
    def test_validate_eagerly(self):
        with pytest.raises(ScenarioError, match="unknown retry policy"):
            RetrySpec(kind="telepathy")
        with pytest.raises(ScenarioError, match="unknown parameter"):
            RetrySpec(kind="give-up", params={"base": 2})
        with pytest.raises(ScenarioError, match="non-empty kind"):
            RetrySpec(kind="")
        with pytest.raises(ScenarioError, match="unknown admission policy"):
            AdmissionSpec(kind="bouncer")
        with pytest.raises(ScenarioError, match="token-bucket' requires parameter 'rate'"):
            AdmissionSpec(kind="token-bucket")
        with pytest.raises(ScenarioError, match="threshold"):
            AdmissionSpec(kind="shed", params={"threshold": 2.0})

    def test_string_shorthand(self):
        assert RetrySpec.from_dict("immediate") == RetrySpec(kind="immediate")
        assert AdmissionSpec.from_dict("capacity") == AdmissionSpec(
            kind="capacity"
        )

    def test_round_trip_and_build(self):
        retry = RetrySpec(
            kind="backoff", params={"base": 2, "cap": 32, "jitter": 4}
        )
        assert RetrySpec.from_dict(retry.to_dict()) == retry
        assert retry.build().cap == 32
        admission = AdmissionSpec(
            kind="token-bucket", params={"rate": 0.5, "burst": 2}
        )
        assert AdmissionSpec.from_dict(admission.to_dict()) == admission
        assert admission.build().rate == 0.5

    def test_defaults_are_the_pre_policy_behaviour(self):
        default = spec()
        assert default.retry == RetrySpec(kind="give-up")
        assert default.admission == AdmissionSpec(kind="capacity")
        # Old JSON (no policy keys) still loads to the defaults.
        payload = default.to_dict()
        del payload["retry"], payload["admission"]
        assert OpenScenarioSpec.from_dict(payload) == default


class TestSpecSerialization:
    def test_json_round_trip_is_exact(self):
        original = spec(
            timeout=50,
            batch=True,
            name="round-trip",
            arrivals=ArrivalSpec(
                family="bursty", params={"devices": 40, "thin": 0.1}
            ),
            retry=RetrySpec(
                kind="backoff", params={"base": 2, "cap": 16, "budget": 3}
            ),
            admission=AdmissionSpec(kind="shed", params={"threshold": 0.6}),
        )
        assert OpenScenarioSpec.from_json(original.to_json()) == original

    def test_from_dict_requires_core_fields(self):
        with pytest.raises(ScenarioError, match="needs 'arrivals'"):
            OpenScenarioSpec.from_dict(
                {
                    "protocol": {"id": "decay"},
                    "channel": "nocd",
                    "n": 64,
                    "trials": 2,
                    "rounds": 16,
                }
            )

    def test_rejects_unknown_keys_and_bad_bounds(self):
        payload = spec().to_dict()
        payload["mystery"] = 1
        with pytest.raises(ScenarioError, match="unknown"):
            OpenScenarioSpec.from_dict(payload)
        for field, value in (
            ("trials", 0),
            ("rounds", 0),
            ("warmup", 999),
            ("capacity", 0),
            ("timeout", 0),
        ):
            with pytest.raises(ScenarioError):
                spec(**{field: value})

    @pytest.mark.parametrize(
        "field,value,complaint",
        [
            ("trials", 1.5, "'trials' must be an integer"),
            ("trials", True, "'trials' must be an integer"),
            ("trials", "7", "'trials' must be an integer"),
            ("trials", None, "'trials' must be an integer"),
            ("trials", [], "'trials' must be an integer"),
            ("trials", {}, "'trials' must be an integer"),
            ("rounds", 2**70, "'rounds' must fit in int64"),
            ("capacity", 8.0, "'capacity' must be an integer"),
            ("timeout", "9", "'timeout' must be an integer"),
            ("seed", -1, "'seed' must be >= 0"),
            ("batch", "no", "'batch' must be true, false or null"),
            ("batch", 1, "'batch' must be true, false or null"),
        ],
    )
    def test_fields_are_checked_not_coerced(self, field, value, complaint):
        payload = spec().to_dict()
        payload[field] = value
        with pytest.raises(ScenarioError, match=complaint):
            OpenScenarioSpec.from_dict(payload)

    def test_override_re_validates_through_from_dict(self):
        derived = spec().override(
            {"arrivals.params.rate": 0.4, "channel.collision_detection": True}
        )
        assert derived.arrivals.params["rate"] == 0.4
        assert derived.channel.collision_detection is True
        with pytest.raises(ScenarioError):
            spec().override({"arrivals.family": "fractal"})

    def test_dotted_overrides_reach_the_policies(self):
        derived = spec().override(
            {
                "retry.kind": "immediate",
                "admission.kind": "token-bucket",
                "admission.params.rate": 0.5,
            }
        )
        assert derived.retry == RetrySpec(kind="immediate")
        assert derived.admission == AdmissionSpec(
            kind="token-bucket", params={"rate": 0.5}
        )
        backoff = spec(
            retry=RetrySpec(kind="backoff", params={"cap": 16})
        ).override({"retry.params.cap": 8})
        assert backoff.retry.params == {"cap": 8}
        with pytest.raises(ScenarioError):
            spec().override({"retry.kind": "telepathy"})

    def test_label_prefers_name(self):
        assert spec(name="x").label() == "x"
        assert spec().label() == "decay/poisson"


class TestResolution:
    def test_routes_schedule_and_history_engines(self):
        assert resolve_open_scenario(spec()).engine == ENGINE_OPEN_SCHEDULE
        cd = spec(
            protocol=ProtocolSpec(id="willard"),
            channel=ChannelSpec(collision_detection=True),
        )
        assert resolve_open_scenario(cd).engine == ENGINE_OPEN_HISTORY

    def test_rejects_player_protocols(self):
        with pytest.raises(ScenarioError, match="player protocol"):
            resolve_open_scenario(spec(protocol=ProtocolSpec(id="backoff")))

    def test_rejects_truth_predictions(self):
        from repro.scenarios import PredictionSpec

        bad = spec(
            protocol=ProtocolSpec(id="sorted-probing"),
            prediction=PredictionSpec(source="truth"),
        )
        with pytest.raises(ScenarioError, match="truth"):
            resolve_open_scenario(bad)

    def test_explicit_distribution_prediction_resolves(self):
        from repro.scenarios import PredictionSpec

        predicted = spec(
            protocol=ProtocolSpec(id="sorted-probing", params={"one_shot": False}),
            prediction=PredictionSpec(
                source="distribution",
                params={"family": "range_uniform_subset", "ranges": [2, 4]},
            ),
        )
        result = run_open_scenario(predicted)
        assert result.metadata["protocol"].startswith("sorted-probing")

    def test_rejects_non_batchable_crash_model(self):
        bad = spec(
            channel=ChannelSpec.from_dict(
                {
                    "collision_detection": False,
                    "model": {
                        "name": "crash",
                        "params": {"probability": 0.1, "rejoin_after": 2},
                    },
                }
            )
        )
        with pytest.raises(ScenarioError, match="rejoin"):
            resolve_open_scenario(bad)


class TestRunAndResult:
    def test_result_round_trips_and_renders(self):
        result = run_open_scenario(spec(name="demo"))
        again = OpenScenarioResult.from_dict(json.loads(result.to_json()))
        assert again.store == result.store
        assert again.spec == result.spec
        text = result.render()
        assert "demo" in text and "open-schedule" in text and "p99" in text

    def test_metadata_records_the_run_identity(self):
        result = run_open_scenario(spec())
        assert result.metadata["engine"] == ENGINE_OPEN_SCHEDULE
        assert result.metadata["offered_load"] == pytest.approx(0.15)
        assert result.metadata["channel"] == "no-CD"
        assert result.metadata["kind"] == "uniform"

    def test_batch_and_scalar_agree_through_the_scenario_layer(self):
        vectorized = run_open_scenario(spec())
        scalar = run_open_scenario(spec(batch=False))
        assert vectorized.store == scalar.store

    def test_policies_thread_through_the_scenario_layer(self):
        lively = spec(
            arrivals=ArrivalSpec(family="poisson", params={"rate": 0.5}),
            capacity=8,
            timeout=16,
            retry=RetrySpec(kind="backoff", params={"jitter": 4, "budget": 4}),
            admission=AdmissionSpec(kind="shed", params={"threshold": 0.3}),
        )
        result = run_open_scenario(lively)
        assert result.metadata["retry"].startswith("backoff")
        assert result.metadata["admission"].startswith("shed")
        assert result.store.retried > 0
        assert "retry=backoff" in result.render()
        scalar = run_open_scenario(
            OpenScenarioSpec.from_dict({**lively.to_dict(), "batch": False})
        )
        assert scalar.store == result.store


def rate_sweep() -> Sweep:
    return Sweep(base=spec(), grid={"arrivals.params.rate": [0.1, 0.2, 0.3]})


class TestSweep:
    def test_points_derive_seeds_and_names(self):
        points = rate_sweep().points()
        assert [p.name for p in points] == ["point-0", "point-1", "point-2"]
        assert len({p.seed for p in points}) == 3
        pinned = Sweep(
            base=spec(), grid={"seed": [1, 2]}, vary_seed=True
        ).points()
        assert [p.seed for p in pinned] == [1, 2]

    def test_sweep_round_trip(self):
        sweep = Sweep(base=spec(), grid={"trials": [4, 8]})
        loaded = Sweep.from_json(sweep.to_json())
        assert loaded == sweep
        assert isinstance(loaded.base, OpenScenarioSpec)
        with pytest.raises(ScenarioError, match="non-empty"):
            Sweep(base=spec(), grid={"trials": []})

    def test_sweep_result_serializes_and_renders(self):
        result = run_sweep(Sweep(base=spec(trials=4), grid={"trials": [2, 4]}))
        assert len(result) == 2
        again = SweepResult.from_dict(json.loads(result.to_json()))
        assert again == result
        assert all(isinstance(r, OpenScenarioResult) for r in again.results)
        table = result.render()
        assert "sweep: 2 point(s), executor=serial" in table
        assert "p99" in table and "open-schedule" in table

    @pytest.mark.parametrize("executor", ["process", "fused", "supervised"])
    def test_every_executor_matches_serial(self, executor):
        """Open points run on every executor with identical results (the
        fused executor has no stacked open engine, so keeps the labels)."""
        sweep = rate_sweep()
        serial = run_sweep(sweep)
        if executor == "supervised":
            executor = make_supervised_executor(timeout=30.0, retries=0)
        other = run_sweep(sweep, executor=executor, max_workers=2)
        assert other.results == serial.results
        assert [r.engine for r in other.results] == ["open-schedule"] * 3
        assert other.failures == []

    def test_base_without_arrivals_is_read_as_open(self):
        base = spec().to_dict()
        del base["arrivals"]
        message = "^open scenario spec needs 'arrivals'$"
        with pytest.raises(ScenarioError, match=message):
            Sweep.from_dict({"base": base, "grid": {"trials": [2, 4]}})

    def test_mixed_families_are_refused(self):
        from repro.scenarios import ScenarioSpec

        closed = ScenarioSpec.from_dict(
            {
                "protocol": "decay",
                "workload": {"kind": "fixed", "params": {"k": 4}},
                "channel": "nocd",
                "n": 64,
                "trials": 4,
                "max_rounds": 64,
            }
        )
        with pytest.raises(ScenarioError, match="cannot mix"):
            run_sweep([closed, spec()])

    @pytest.mark.parametrize(
        "protocol_id,cd,rates",
        [
            ("decay", False, [0.05, 0.1, 0.2, 0.3]),
            ("willard", True, [0.02, 0.05, 0.1, 0.15]),
        ],
    )
    def test_latency_curve_is_monotone_in_load(self, protocol_id, cd, rates):
        """The acceptance curve: p50/p99 sojourn rise with offered load."""
        base = OpenScenarioSpec(
            protocol=ProtocolSpec(id=protocol_id),
            arrivals=ArrivalSpec(family="poisson", params={"rate": rates[0]}),
            channel=ChannelSpec(collision_detection=cd),
            n=128,
            trials=48,
            rounds=384,
            warmup=64,
            capacity=128,
            seed=2021,
        )
        result = run_sweep(Sweep(base=base, grid={"arrivals.params.rate": rates}))
        p50s = [r.summary.p50 for r in result.results]
        p99s = [r.summary.p99 for r in result.results]
        assert p50s == sorted(p50s), f"p50 not monotone in load: {p50s}"
        assert p99s == sorted(p99s), f"p99 not monotone in load: {p99s}"
        assert p99s[-1] > p99s[0], "tail latency must grow with load"


class TestExamples:
    def test_example_scenario_loads_and_runs(self):
        loaded = OpenScenarioSpec.from_dict(EXAMPLE_OPEN_SCENARIO)
        result = run_open_scenario(loaded.override({"trials": 4, "rounds": 128}))
        assert result.engine == ENGINE_OPEN_SCHEDULE

    def test_example_sweep_loads(self):
        sweep = Sweep.from_dict(EXAMPLE_OPEN_SWEEP)
        assert len(sweep.points()) == 4

    def test_retry_example_sweep_covers_the_policy_grid(self):
        sweep = Sweep.from_dict(EXAMPLE_OPEN_RETRY_SWEEP)
        points = sweep.points()
        assert len(points) == 6
        assert {p.retry.kind for p in points} == {
            "give-up", "immediate", "backoff",
        }
        assert all(p.admission.kind == "shed" for p in points)


class TestOpenWorkloadKinds:
    """Satellite: the arrival families double as closed workload kinds."""

    def test_poisson_workload_resolves_to_clamped_source(self):
        source = resolve_workload(
            WorkloadSpec(kind="poisson", params={"rate": 0.5}), n=64
        )
        import numpy as np

        draws = source.sample_many(np.random.default_rng(0), 500)
        assert draws.min() >= 2 and draws.max() <= 64

    def test_zipf_hotspot_workload_resolves(self):
        source = resolve_workload(
            WorkloadSpec(
                kind="zipf-hotspot",
                params={"rate": 0.3, "alpha": 1.0, "max_batch": 8},
            ),
            n=32,
        )
        assert "zipf-hotspot" in source.name

    def test_bad_parameters_surface_as_scenario_errors(self):
        with pytest.raises(ScenarioError, match="bad poisson workload"):
            resolve_workload(
                WorkloadSpec(kind="poisson", params={"rate": -1}), n=64
            )
        with pytest.raises(ScenarioError, match="unknown workload kind"):
            resolve_workload(WorkloadSpec(kind="beta"), n=64)

    def test_closed_scenario_runs_on_an_open_workload(self):
        from repro.scenarios import ScenarioSpec, run_scenario

        closed = ScenarioSpec.from_dict(
            {
                "protocol": {"id": "decay"},
                "workload": {"kind": "poisson", "params": {"rate": 4.0}},
                "channel": "nocd",
                "n": 64,
                "trials": 64,
                "max_rounds": 256,
                "seed": 2021,
            }
        )
        result = run_scenario(closed)
        assert result.success.rate > 0.9

    def test_grid_overrides_reach_dotted_workload_params(self):
        from repro.scenarios import ScenarioSpec, Sweep

        base = ScenarioSpec.from_dict(
            {
                "protocol": {"id": "decay"},
                "workload": {"kind": "poisson", "params": {"rate": 2.0}},
                "channel": "nocd",
                "n": 64,
                "trials": 8,
                "max_rounds": 128,
                "seed": 2021,
            }
        )
        sweep = Sweep(base=base, grid={"workload.params.rate": [1.0, 8.0]})
        rates = [p.workload.params["rate"] for p in sweep.points()]
        assert rates == [1.0, 8.0]
