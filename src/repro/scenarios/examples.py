"""Ready-to-run example payloads that are library data, not CLI strings.

Example specs consumed beyond the CLI live here, next to the spec/sweep
machinery they describe, so benchmarks and tooling can import them
without dragging in the argparse entry point - the CLI imports *from*
the library, never the other way around.
"""

from __future__ import annotations

import copy

__all__ = [
    "EXAMPLE_CD_SWEEP",
    "EXAMPLE_ADVERSARY_SWEEP",
    "EXAMPLE_FAULT_PLAN",
    "EXAMPLE_OPEN_SCENARIO",
    "EXAMPLE_OPEN_SWEEP",
    "EXAMPLE_OPEN_RETRY_SWEEP",
]

#: The dense CD sweep: the collision-detection arm of the robustness /
#: crossover experiments as one declarative grid.  Willard (the classical
#: CD baseline, at two vote repetitions) and cycling code search (the
#: Section 2.6 prediction algorithm) are feedback-driven, so their points
#: run on the history engine and stack into a single fused-history run;
#: the decay points ride along as one fused-schedule group.  The
#: prediction axis dials clean ("truth") against systematically faulty
#: (range-shifted) predictions - only code search consumes it, which is
#: the point: the baselines are the yardstick the prediction algorithm is
#: measured against on every workload.  Printed by ``repro scenario
#: example --cd-grid``; ``benchmarks/sweep_workload.py`` builds its
#: fused-CD benchmark grid from this same definition.
EXAMPLE_CD_SWEEP: dict = {
    "base": {
        "name": "cd-grid",
        "protocol": {"id": "willard", "params": {}},
        "workload": {
            "kind": "distribution",
            "params": {"family": "range_uniform_subset", "ranges": [2, 5, 8]},
        },
        "channel": "cd",
        "prediction": "truth",
        "n": 2**10,
        "trials": 192,
        "max_rounds": 512,
        "seed": 2021,
    },
    "grid": {
        "protocol": [
            {"id": "willard", "params": {}},
            {"id": "willard", "params": {"repetitions": 7}},
            {"id": "decay", "params": {}},
            {"id": "code-search", "params": {"one_shot": False, "repetitions": 5}},
        ],
        "prediction": [
            "truth",
            {
                "source": "distribution",
                "params": {
                    "family": "perturbed",
                    "base": {"family": "range_uniform_subset", "ranges": [2, 5, 8]},
                    "shift": 3,
                    "floor": 1e-6,
                },
            },
        ],
        "workload.params.ranges": [
            [2, 5, 8],
            [3, 6, 9],
            [2, 4, 6, 8],
            [2, 3, 5, 7, 9],
        ],
    },
    "vary_seed": True,
}

#: The adversary robustness grid: rounds-to-success versus jamming budget
#: for the CD protocols under clean ("truth") and range-shifted
#: predictions.  The budget axis overrides
#: ``channel.model.params.budget`` in place, so every point carries the
#: full channel-model spec and the fused executor groups points *by
#: model*: same-budget points stack into fused-history runs, points with
#: different budgets (different adversaries) never share an engine run.
#: Budget 0 is the faithful channel (the null jammer reduces to no model
#: at all), anchoring each curve's clean baseline; the oblivious jammer
#: forces collisions from round 1, so mean rounds degrade monotonically
#: in the budget - the robustness curve the JAM-ROBUST experiment pins.
#: Printed by ``repro scenario example --adversary``.
#: One open-system point: decay serving a Poisson request stream on the
#: no-CD channel - the canonical latency-under-load measurement.  Offered
#: load 0.2 requests/round sits comfortably below decay's service
#: capacity, so the backlog stays stable and the sojourn percentiles are
#: finite; warmup 64 discards the empty-system transient.  Printed by
#: ``repro scenario example --open``.
EXAMPLE_OPEN_SCENARIO: dict = {
    "name": "open-decay-poisson",
    "protocol": {"id": "decay", "params": {}},
    "arrivals": {"family": "poisson", "params": {"rate": 0.2}},
    "channel": "nocd",
    "n": 256,
    "trials": 64,
    "rounds": 512,
    "warmup": 64,
    "capacity": 128,
    "seed": 2021,
}

#: The load -> latency curve: the open-decay point swept over a 4-point
#: offered-load grid.  p50/p99 sojourn rise monotonically with load as
#: the live population (hence per-epoch contention) grows - the
#: open-system tail-latency story in one table.  Printed by ``repro
#: scenario example --open-sweep``; the CI smoke and
#: ``benchmarks/opensys_workload.py`` reuse this grid shape.
EXAMPLE_OPEN_SWEEP: dict = {
    "base": copy.deepcopy(EXAMPLE_OPEN_SCENARIO),
    "grid": {"arrivals.params.rate": [0.05, 0.1, 0.2, 0.35]},
    "vary_seed": True,
}

#: The graceful-degradation grid: a small open point with a tight buffer
#: and timeout, swept over retry kind x offered load.  At the overload
#: rates the ``immediate`` column shows the retry storm (attempts and
#: retried explode, goodput sags) while ``backoff`` keeps the orbit
#: drained and the ``give-up`` row is the PR 7 baseline.  Printed by
#: ``repro scenario example --open-retry``; the CI smoke runs exactly
#: this sweep and greps the retried/abandoned counters.
EXAMPLE_OPEN_RETRY_SWEEP: dict = {
    "base": {
        "name": "open-decay-retry",
        "protocol": {"id": "decay", "params": {}},
        "arrivals": {"family": "poisson", "params": {"rate": 0.2}},
        "channel": "nocd",
        "n": 64,
        "trials": 16,
        "rounds": 256,
        "warmup": 32,
        "capacity": 16,
        "timeout": 24,
        # params stay empty so the grid can swap 'kind' freely: a dotted
        # override of retry.kind keeps the base params, and give-up /
        # immediate reject backoff-only knobs.
        "retry": {"kind": "backoff", "params": {}},
        "admission": {"kind": "shed", "params": {"threshold": 0.5}},
        "seed": 2021,
    },
    "grid": {
        "retry.kind": ["give-up", "immediate", "backoff"],
        "arrivals.params.rate": [0.15, 0.45],
    },
    "vary_seed": True,
}

#: The jamming robustness grid: protocol x prediction quality x channel
#: model x budget.  The model axis climbs the adversary information
#: hierarchy - the oblivious prefix jammer plus two adaptive-strategy
#: rows (greedy success-suppression and the back-loaded scheduler); the
#: fused sweep executor groups the oblivious rows by model and runs each
#: adaptive row as a serial singleton (adaptive state is deliberately
#: unfusable).  Printed by ``repro scenario example --adversary``.
EXAMPLE_ADVERSARY_SWEEP: dict = {
    "base": {
        "name": "adversary-grid",
        "protocol": {"id": "willard", "params": {}},
        "workload": {
            "kind": "distribution",
            "params": {"family": "range_uniform_subset", "ranges": [2, 4, 6]},
        },
        "channel": {
            "collision_detection": True,
            "model": {
                "name": "jam-oblivious",
                "params": {"budget": 0, "start": 1, "period": 1},
            },
        },
        "prediction": "truth",
        "n": 2**10,
        "trials": 160,
        "max_rounds": 512,
        "seed": 2021,
    },
    "grid": {
        "protocol": [
            {"id": "willard", "params": {}},
            {"id": "decay", "params": {}},
            {"id": "sorted-probing", "params": {"one_shot": False}},
        ],
        "prediction": [
            "truth",
            {
                "source": "distribution",
                "params": {
                    "family": "perturbed",
                    "base": {"family": "range_uniform_subset", "ranges": [2, 4, 6]},
                    "shift": 3,
                    "floor": 1e-6,
                },
            },
        ],
        # The model axis climbs the information hierarchy; it is listed
        # BEFORE the budget axis so the dotted budget override patches
        # into whichever model the row selected (overrides apply in grid
        # order).  The budget placeholders here are overwritten.
        "channel.model": [
            {
                "name": "jam-oblivious",
                "params": {"budget": 0, "start": 1, "period": 1},
            },
            {
                "name": "jam-adaptive",
                "params": {"budget": 0, "strategy": "greedy"},
            },
            {
                "name": "jam-adaptive",
                "params": {"budget": 0, "strategy": "scheduler", "mode": "back"},
            },
        ],
        "channel.model.params.budget": [0, 8, 16, 32],
    },
    "vary_seed": True,
}

#: The fault-injection demo plan for ``scenario sweep --inject-faults``:
#: point 0's first attempt is killed, point 1's first result comes back
#: corrupted, point 2's first attempt hangs (the supervisor's timeout
#: reclaims it), and the *driver* itself crashes after 4 checkpointed
#: points - re-running with the same ``--resume`` journal replays those 4
#: and finishes bit-identically.  Worker faults (crash/hang/corrupt) need
#: ``--executor supervised``; ``crash_driver_after`` works everywhere.
#: ``tests/scenarios/test_supervised.py`` exercises every directive.
EXAMPLE_FAULT_PLAN: dict = {
    "crash": {"0": 1},
    "corrupt": {"1": 1},
    "hang": {"2": 1},
    "hang_seconds": 600,
    "crash_driver_after": 4,
}
