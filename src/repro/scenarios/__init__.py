"""Declarative scenario API: specs, protocol registry, runner and sweeps.

The single configuration-driven entry point into the simulation stack:

* :mod:`~repro.scenarios.spec` - serializable scenario descriptions
  (:class:`ScenarioSpec` and its protocol / channel / workload /
  prediction / advice sub-specs), plus ``spec_family``, the one place
  that maps a spec (or its parsed JSON) to its spec, runner and result types;
* :mod:`~repro.scenarios.registry` - string id -> constructor for every
  protocol in :mod:`repro.protocols`;
* :mod:`~repro.scenarios.workloads` - workload resolution, including the
  :class:`SizeDistribution` families and the bursty arrival model;
* :mod:`~repro.scenarios.runner` - :func:`run_scenario`, which
  auto-routes to the batch-schedule / batch-history / scalar /
  per-player engine and returns a JSON-round-trippable
  :class:`ScenarioResult`;
* :mod:`~repro.scenarios.sweep` - grid expansion plus serial,
  process-pool (multi-core) and fused (stacked single-core) executors
  for closed and open-system grids alike; the fused executor stacks
  compatible schedule, history (CD) and player points into one engine
  run each;
* :mod:`~repro.scenarios.store` - the durability layer: a
  content-addressed result store (:class:`ResultStore`) and the
  checkpointing :class:`SweepJournal` behind
  ``run_sweep(..., resume=..., cache=...)``;
* :mod:`~repro.scenarios.supervised` - the ``"supervised"`` executor:
  per-point timeouts, bounded retry with backoff, and a structured
  failure manifest instead of a raised traceback;
* :mod:`~repro.scenarios.faults` - deterministic crash/hang/corrupt
  injection (:class:`FaultPlan`) so the recovery paths stay tested;
* :mod:`~repro.scenarios.open` - open-system scenarios over streaming
  arrivals (:class:`OpenScenarioSpec`, :func:`run_open_scenario`); a
  :class:`Sweep` over an open base gives the load -> latency curve.

Quick start::

    from repro.scenarios import ScenarioSpec, run_scenario

    spec = ScenarioSpec.from_dict({
        "name": "sorted-probing vs a 2-bit workload",
        "protocol": {"id": "sorted-probing", "params": {"one_shot": False}},
        "prediction": "truth",
        "workload": {"kind": "distribution",
                     "params": {"family": "range_uniform_subset",
                                "ranges": [3, 6, 9, 12]}},
        "channel": "nocd",
        "n": 2**16, "trials": 2000, "max_rounds": 1024, "seed": 2021,
    })
    result = run_scenario(spec)
    print(result.render())
"""

from .. import _lazy

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    # specs
    "ScenarioSpec": ".spec",
    "ProtocolSpec": ".spec",
    "ChannelSpec": ".spec",
    "WorkloadSpec": ".spec",
    "PredictionSpec": ".spec",
    "AdviceSpec": ".spec",
    "ScenarioError": ".spec",
    # registry
    "RegisteredProtocol": ".registry",
    "BuildContext": ".registry",
    "register_protocol": ".registry",
    "get_protocol": ".registry",
    "protocol_ids": ".registry",
    "build_protocol": ".registry",
    # workloads
    "DISTRIBUTION_FAMILIES": ".workloads",
    "register_distribution_family": ".workloads",
    "resolve_distribution": ".workloads",
    "resolve_workload": ".workloads",
    # runner
    "run_scenario": ".runner",
    "ScenarioResult": ".runner",
    "ADVERSARIES": ".runner",
    # sweeps
    "Sweep": ".sweep",
    "SweepResult": ".sweep",
    "SweepPointError": ".sweep",
    "run_sweep": ".sweep",
    "derive_point_seeds": ".sweep",
    "fusion_key": ".sweep",
    "fusion_groups": ".sweep",
    "EXECUTORS": ".sweep",
    # durability
    "SCHEMA_VERSION": ".store",
    "spec_key": ".store",
    "sweep_key": ".store",
    "ResultStore": ".store",
    "SweepJournal": ".store",
    # supervision and fault injection
    "make_supervised_executor": ".supervised",
    "FaultPlan": ".faults",
    "SimulatedCrash": ".faults",
    "fault_plan_from_json": ".faults",
    # open system
    "ArrivalSpec": ".open",
    "RetrySpec": ".open",
    "AdmissionSpec": ".open",
    "OpenScenarioSpec": ".open",
    "OpenScenarioResult": ".open",
    "resolve_open_scenario": ".open",
    "run_open_scenario": ".open",
    # example payloads
    "EXAMPLE_CD_SWEEP": ".examples",
    "EXAMPLE_ADVERSARY_SWEEP": ".examples",
    "EXAMPLE_FAULT_PLAN": ".examples",
    "EXAMPLE_OPEN_SCENARIO": ".examples",
    "EXAMPLE_OPEN_SWEEP": ".examples",
    "EXAMPLE_OPEN_RETRY_SWEEP": ".examples",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.exports(__name__, globals(), _EXPORTS)
