"""Command-line entry point: ``repro`` / ``python -m repro``.

Subcommands:

* ``repro list`` - show the experiment registry;
* ``repro run <ID> [...]`` - run experiments and print their reports
  (``all`` runs the full registry);
* ``repro report [...]`` - run the full registry and emit the
  EXPERIMENTS.md-style paper-vs-measured summary;
* ``repro scenario run <SPEC.json>`` - execute one declarative scenario:
  a closed contention instance, or an open-system run when the spec has
  ``arrivals`` (streaming arrivals served round by round, reporting
  per-request sojourn percentiles and throughput);
* ``repro scenario sweep <SWEEP.json>`` - expand and execute a scenario
  grid of either family (an open grid over ``arrivals.params.rate`` is
  the load -> latency curve) through the serial, process-pool, fused or
  supervised executor;
  ``--resume JOURNAL`` checkpoints every completed point and replays the
  journal on re-run, ``--cache-dir DIR`` consults a content-addressed
  result store before executing anything, and ``--inject-faults JSON``
  drives the deterministic crash/hang/corrupt harness (an injected
  driver crash exits with status 3; exhausted supervised retries report
  a failure manifest and exit 1);
* ``repro scenario example [--sweep|--player|--cd-grid|--adversary|
  --open|--open-sweep|--open-retry]`` - print a ready-to-run spec
  (``--cd-grid`` is the dense collision-detection sweep whose points
  stack through the fused history engine; ``--adversary`` is the jamming
  robustness grid, grouped by channel model; the ``--open`` flags print
  an open-system scenario, its load sweep and its retry-policy grid).

Every run is reproducible from its seed; ``--quick`` thins the
experiment sweeps for smoke-testing, and ``--json`` switches the
scenario commands to machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

# The experiment registry, the sweep layer, the open-system stack and
# the supervised executor are imported inside the commands that use
# them, so a cold closed ``scenario run`` loads none of them.
from .scenarios import (
    EXAMPLE_ADVERSARY_SWEEP,
    EXAMPLE_CD_SWEEP,
    EXAMPLE_FAULT_PLAN,
    EXAMPLE_OPEN_RETRY_SWEEP,
    EXAMPLE_OPEN_SCENARIO,
    EXAMPLE_OPEN_SWEEP,
    ScenarioError,
)
from .scenarios.spec import spec_family

if TYPE_CHECKING:
    from .experiments.base import ExperimentConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Contention Resolution with Predictions' "
            "(Gilbert, Newport, Vaidya, Weaver; PODC 2021)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list the experiment registry")

    run_parser = subparsers.add_parser(
        "run", help="run one or more experiments and print their reports"
    )
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'repro list'), or 'all'",
    )
    _add_config_arguments(run_parser)
    run_parser.add_argument(
        "--csv",
        action="store_true",
        help="emit the raw measurement tables as CSV after each report",
    )

    report_parser = subparsers.add_parser(
        "report",
        help="run the full registry and print a paper-vs-measured summary",
    )
    _add_config_arguments(report_parser)

    scenario_parser = subparsers.add_parser(
        "scenario", help="run declarative scenarios (see docs/SCENARIOS.md)"
    )
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )

    scenario_run = scenario_sub.add_parser(
        "run",
        help=(
            "execute one scenario JSON file ('-' reads stdin): a "
            "ScenarioSpec, or an OpenScenarioSpec when it has 'arrivals'"
        ),
    )
    scenario_run.add_argument("spec", help="path to a scenario JSON file, or '-'")
    scenario_run.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )

    scenario_sweep = scenario_sub.add_parser(
        "sweep", help="expand and execute a sweep JSON file ('-' reads stdin)"
    )
    scenario_sweep.add_argument(
        "spec", help="path to a sweep JSON file ({base, grid, vary_seed}), or '-'"
    )
    scenario_sweep.add_argument(
        "--executor",
        choices=["serial", "process", "fused", "supervised"],
        default="serial",
        help=(
            "point executor: in-process serial (default), a process pool, "
            "fused - compatible points stacked into one vectorized "
            "engine run (single-core speedup; statistics identical to "
            "serial) - or supervised: per-point worker processes with "
            "timeouts, bounded retry and a failure manifest instead of a "
            "raised traceback"
        ),
    )
    scenario_sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size (default: min(points, cpu count))",
    )
    scenario_sweep.add_argument(
        "--resume",
        metavar="JOURNAL",
        default=None,
        help=(
            "checkpoint journal path: completed points are appended as "
            "the sweep runs, and an existing journal is replayed so only "
            "missing points re-execute (bit-identical to an "
            "uninterrupted run)"
        ),
    )
    scenario_sweep.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "content-addressed result store: points whose spec hash is "
            "already cached are served from disk without running any "
            "engine"
        ),
    )
    scenario_sweep.add_argument(
        "--point-timeout",
        type=float,
        default=60.0,
        help=(
            "supervised executor only: per-attempt wall-clock budget in "
            "seconds (default 60)"
        ),
    )
    scenario_sweep.add_argument(
        "--point-retries",
        type=int,
        default=2,
        help=(
            "supervised executor only: extra attempts a failed point "
            "gets before entering the failure manifest (default 2)"
        ),
    )
    scenario_sweep.add_argument(
        "--inject-faults",
        metavar="JSON",
        default=None,
        help=(
            "deterministic fault plan, e.g. "
            f"'{json.dumps(EXAMPLE_FAULT_PLAN)}' - worker "
            "faults need --executor supervised; a driver crash exits 3 "
            "with the journal intact"
        ),
    )
    scenario_sweep.add_argument(
        "--json", action="store_true", help="emit all point results as JSON"
    )

    scenario_example = scenario_sub.add_parser(
        "example", help="print a ready-to-run example spec"
    )
    # Each flag names the payload it prints; without one, the uniform demo.
    scenario_example.set_defaults(payload=EXAMPLE_SCENARIO)
    example_kind = scenario_example.add_mutually_exclusive_group()
    for flag, payload, help_text in (
        ("--sweep", EXAMPLE_SWEEP,
         "print a sweep ({base, grid}) instead of a single scenario"),
        ("--player", EXAMPLE_PLAYER_SCENARIO,
         "print a player-protocol scenario (advice + adversary on the "
         "batch player engine) instead of the uniform demo"),
        ("--cd-grid", EXAMPLE_CD_SWEEP,
         "print the dense CD sweep (Willard/decay/code-search under "
         "clean and faulty predictions); its history points stack "
         "through the fused executor (engine label fused-history)"),
        ("--adversary", EXAMPLE_ADVERSARY_SWEEP,
         "print the adversary robustness sweep (rounds vs jamming "
         "budget for willard/decay/sorted-probing under clean and "
         "shifted predictions); points group by channel model in the "
         "fused executor"),
        ("--open", EXAMPLE_OPEN_SCENARIO,
         "print an open-system scenario: streaming arrivals served "
         "round by round, reporting sojourn-latency percentiles and "
         "throughput"),
        ("--open-sweep", EXAMPLE_OPEN_SWEEP,
         "print the 4-point open-system load sweep; sweeping "
         "arrivals.params.rate yields the load -> latency curve"),
        ("--open-retry", EXAMPLE_OPEN_RETRY_SWEEP,
         "print the graceful-degradation sweep (retry kind x offered "
         "load, with shedding admission and a request timeout)"),
    ):
        example_kind.add_argument(
            flag, action="store_const", dest="payload", const=payload,
            help=help_text,
        )
    return parser


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--n", type=int, default=2**16, help="maximum network size (default 2^16)"
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=3000,
        help="Monte Carlo trials per measured point (default 3000)",
    )
    parser.add_argument(
        "--seed", type=int, default=2021, help="root RNG seed (default 2021)"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="thin sweeps and trials for a fast smoke run",
    )
    parser.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "run uniform Monte Carlo on the vectorized batch engine "
            "(default); --no-batch forces the scalar reference loop"
        ),
    )


def _config_from(args: argparse.Namespace) -> ExperimentConfig:
    from .experiments.base import ExperimentConfig

    return ExperimentConfig(
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        quick=args.quick,
        batch=args.batch,
    )


def _command_list() -> int:
    from .experiments.registry import EXPERIMENTS

    width = max(len(experiment_id) for experiment_id in EXPERIMENTS)
    for experiment_id, (_, description) in EXPERIMENTS.items():
        print(f"{experiment_id.ljust(width)}  {description}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from .experiments.registry import EXPERIMENTS, experiment_ids, run_experiment

    requested = (
        experiment_ids()
        if any(name.lower() == "all" for name in args.experiments)
        else args.experiments
    )
    # Validate the whole request before running anything: a typo in the
    # last id must not cost the first ids' (possibly long) runs.
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment id(s): {', '.join(unknown)}; known ids: "
            f"{', '.join(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    config = _config_from(args)
    exit_code = 0
    for experiment_id in requested:
        result = run_experiment(experiment_id, config)
        print(result.render())
        if args.csv:
            print(result.to_csv())
        if not result.all_checks_pass():
            exit_code = 1
    return exit_code


def _command_report(args: argparse.Namespace) -> int:
    from .experiments.registry import experiment_ids, run_experiment

    config = _config_from(args)
    failures: list[str] = []
    print("paper-vs-measured summary")
    print("=" * 72)
    for experiment_id in experiment_ids():
        result = run_experiment(experiment_id, config)
        status = "PASS" if result.all_checks_pass() else "FAIL"
        print(f"[{status}] {experiment_id}: {result.title}")
        print(f"       reproduces {result.reference}")
        for name in result.failed_checks():
            print(f"       failed: {name}")
        if not result.all_checks_pass():
            failures.append(experiment_id)
    print("=" * 72)
    if failures:
        print(f"{len(failures)} experiment(s) failed: {', '.join(failures)}")
        return 1
    print("all experiments reproduce their paper artefacts")
    return 0


#: The example scenario: the paper's headline no-CD prediction protocol
#: against a 2-bit workload, small enough to finish in well under a second.
EXAMPLE_SCENARIO: dict = {
    "name": "sorted-probing-demo",
    "protocol": {"id": "sorted-probing", "params": {"one_shot": False}},
    "prediction": "truth",
    "workload": {
        "kind": "distribution",
        "params": {"family": "range_uniform_subset", "ranges": [2, 4, 6, 8]},
    },
    "channel": "nocd",
    "n": 2**10,
    "trials": 1000,
    "max_rounds": 512,
    "seed": 2021,
}

#: The example sweep: the same scenario across an entropy dial.
EXAMPLE_SWEEP: dict = {
    "base": EXAMPLE_SCENARIO,
    "grid": {
        "workload.params.ranges": [[5], [3, 7], [2, 5, 8], [2, 4, 6, 8]],
    },
    "vary_seed": True,
}

#: The example player scenario: a Section-3.2 tree descent under faulty
#: advice against a clustered adversary, routed to the batch player engine.
EXAMPLE_PLAYER_SCENARIO: dict = {
    "name": "tree-descent-demo",
    "protocol": {"id": "tree-descent", "params": {"advice_bits": 4}},
    "workload": {"kind": "fixed", "params": {"k": 6}},
    "channel": "cd",
    "advice": {
        "function": "min-id-prefix",
        "bits": 4,
        "corruption": {"model": "bit-flip", "probability": 0.1},
    },
    "adversary": "clustered",
    "n": 2**10,
    "trials": 1000,
    "max_rounds": 64,
    "seed": 2021,
}


def _read_spec_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _command_scenario(args: argparse.Namespace) -> int:
    if args.scenario_command == "example":
        print(json.dumps(args.payload, indent=2))
        return 0
    try:
        text = _read_spec_text(args.spec)
    except OSError as error:
        print(f"cannot read spec {args.spec!r}: {error}", file=sys.stderr)
        return 2
    try:
        if args.scenario_command == "run":
            try:
                data = json.loads(text)
            except (ValueError, RecursionError) as error:
                raise ScenarioError(f"invalid scenario JSON: {error}") from None
            family = spec_family(data)
            result = family.run(family.spec.from_dict(data))
            print(result.to_json() if args.json else result.render())
            return 0
        if args.scenario_command == "sweep":
            from .scenarios import (
                SimulatedCrash,
                Sweep,
                fault_plan_from_json,
                run_sweep,
            )

            executor = args.executor
            if executor == "supervised":
                from .scenarios import make_supervised_executor

                # The user's failure policy in place of the library default.
                executor = make_supervised_executor(
                    timeout=args.point_timeout, retries=args.point_retries
                )
            fault_plan = (
                fault_plan_from_json(args.inject_faults)
                if args.inject_faults
                else None
            )
            try:
                sweep_result = run_sweep(
                    Sweep.from_json(text),
                    executor=executor,
                    max_workers=args.workers,
                    resume=args.resume,
                    cache=args.cache_dir,
                    fault_plan=fault_plan,
                )
            except SimulatedCrash as crash:
                print(f"simulated crash: {crash}", file=sys.stderr)
                return 3
            print(sweep_result.to_json() if args.json else sweep_result.render())
            return 1 if sweep_result.failures else 0
    except ScenarioError as error:
        print(f"scenario error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled scenario command {args.scenario_command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list()
    if args.command == "run":
        return _command_run(args)
    if args.command == "report":
        return _command_report(args)
    if args.command == "scenario":
        return _command_scenario(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
