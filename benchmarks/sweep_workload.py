"""The shared sweep-executor benchmark workloads.

One definition consumed by the opt-in benchmark gates
(:mod:`benchmarks.test_bench_sweep`,
:mod:`benchmarks.test_bench_sweep_fused`,
:mod:`benchmarks.test_bench_cache`, :mod:`benchmarks.test_bench_history`)
and perfbench's ``closed_sweep`` and ``durable_sweep`` workloads:

* :func:`executor_sweep` - eight entropy-dial points at Table-1 scale,
  each heavy enough (200k trials by default) to dwarf the process
  pool's spawn cost (the multi-core axis);
* :func:`cache_sweep` - the same dial at 50k trials per point, the
  warm-cache gate workload (:mod:`benchmarks.test_bench_cache`): heavy
  enough that a cache hit beating re-simulation by >= 20x is a trivial
  bar, not a lucky one;
* :func:`fused_sweep` - a dense 32-point transmission-probability dial
  of long-horizon ``fixed-probability`` points: many small engine-bound
  points, the regime where the fused executor's stacked round loop wins
  on a single core (the axis the pool cannot touch there);
* :func:`fused_player_sweep` - a 16-point advice-corruption curve of
  worst-case deterministic scans: long-horizon player points stacked
  into one randomness-free array run;
* :func:`cd_grid_sweep` - the dense CD grid (Willard / decay /
  code-search under clean and shifted predictions), built from the same
  :data:`repro.scenarios.EXAMPLE_CD_SWEEP` definition the CLI prints via
  ``repro scenario example --cd-grid``, so the fused-CD benchmark gate
  and the docs exercise one workload.  Its history points stack through
  :func:`repro.channel.batch.run_history_stacked` (``fused-history``).
"""

from __future__ import annotations

import copy

from repro.scenarios import EXAMPLE_CD_SWEEP, ScenarioSpec, Sweep

N = 2**16
TRIALS_PER_POINT = 200_000
MAX_ROUNDS = 1024
SEED = 2021

#: The fused benchmark's dense single-core grid.
FUSED_POINTS = 32
FUSED_TRIALS_PER_POINT = 256
FUSED_PLAYER_POINTS = 16
FUSED_PLAYER_TRIALS = 48

#: The dense CD grid (4 protocols x 2 prediction qualities x 4
#: workloads; 24 history points + 8 schedule points).
CD_GRID_POINTS = 32
CD_GRID_TRIALS = EXAMPLE_CD_SWEEP["base"]["trials"]

#: The warm-cache gate reuses the executor dial at reduced weight: heavy
#: enough that re-simulating dwarfs key hashing + JSON loads by orders
#: of magnitude, light enough to keep the benchmark batch fast.
CACHE_TRIALS_PER_POINT = 50_000

#: Eight entropy-dial points (n = 2^16 has 16 condensed ranges).
RANGE_SETS: list[list[int]] = [
    [8],
    [4, 12],
    [2, 8, 14],
    [2, 6, 10, 14],
    [3, 7, 11, 15],
    [2, 5, 8, 11, 14],
    [2, 4, 6, 8, 10, 12],
    [2, 4, 6, 8, 10, 12, 14, 16],
]


def executor_sweep(trials: int = TRIALS_PER_POINT) -> Sweep:
    """The benchmark sweep: cycling sorted probing across the dial."""
    base = ScenarioSpec.from_dict(
        {
            "name": "bench-sweep",
            "protocol": {"id": "sorted-probing", "params": {"one_shot": False}},
            "prediction": "truth",
            "workload": {
                "kind": "distribution",
                "params": {"family": "range_uniform_subset", "ranges": [8]},
            },
            "channel": "nocd",
            "n": N,
            "trials": trials,
            "max_rounds": MAX_ROUNDS,
            "seed": SEED,
        }
    )
    return Sweep(base=base, grid={"workload.params.ranges": RANGE_SETS})


def cache_sweep(trials: int = CACHE_TRIALS_PER_POINT) -> Sweep:
    """The warm-cache gate grid: the executor dial at cache-gate weight.

    Same eight entropy-dial points as :func:`executor_sweep` - the
    content-addressed store is executor-agnostic, so the cache gate
    reuses the canonical sweep rather than inventing a new grid.
    """
    return executor_sweep(trials)


def fused_sweep(trials: int = FUSED_TRIALS_PER_POINT) -> Sweep:
    """The fused-executor gate grid: a dense transmission-probability dial.

    32 ``fixed-probability`` points sweeping ``k_hat`` (hence the round
    probability ``p = 1/k_hat``) against a fixed ``k = 4`` workload:
    solve horizons grow to hundreds of rounds at the high-``k_hat`` end,
    so the grid is engine-bound - per-round work dominates resolution -
    which is exactly the regime the stacked schedule engine exists for.
    """
    base = ScenarioSpec.from_dict(
        {
            "name": "bench-fused",
            "protocol": {"id": "fixed-probability", "params": {"k_hat": 64.0}},
            "workload": {"kind": "fixed", "params": {"k": 4}},
            "channel": "nocd",
            "n": 2**10,
            "trials": trials,
            "max_rounds": 2048,
            "seed": SEED,
        }
    )
    k_hats = [
        48.0 + (512.0 - 48.0) * index / (FUSED_POINTS - 1)
        for index in range(FUSED_POINTS)
    ]
    return Sweep(base=base, grid={"protocol.params.k_hat": k_hats})


def fused_player_sweep(trials: int = FUSED_PLAYER_TRIALS) -> Sweep:
    """The fused player grid: worst-case scans across an advice-noise dial.

    16 deterministic-scan points (b=2 at n=4096: a 1024-round worst-case
    pass) sweeping the bit-flip corruption probability - the robustness
    curve of Section 3.2, sampled densely.  The suffix adversary packs
    participants at the top of the advised subtree, so uncorrupted trials
    scan nearly the whole pass and corrupted ones exhaust it: every point
    is engine-bound for its full horizon.
    """
    base = ScenarioSpec.from_dict(
        {
            "name": "bench-fused-player",
            "protocol": {"id": "deterministic-scan", "params": {"advice_bits": 2}},
            "workload": {"kind": "fixed", "params": {"k": 2}},
            "channel": "nocd",
            "advice": {
                "function": "min-id-prefix",
                "bits": 2,
                "corruption": {"model": "bit-flip", "probability": 0.0},
            },
            "adversary": "suffix",
            "n": 2**12,
            "trials": trials,
            "max_rounds": 1025,
            "seed": SEED,
        }
    )
    probabilities = [
        round(index / (2 * (FUSED_PLAYER_POINTS - 1)), 6)
        for index in range(FUSED_PLAYER_POINTS)
    ]
    return Sweep(base=base, grid={"advice.corruption.probability": probabilities})


def cd_grid_sweep(trials: int = CD_GRID_TRIALS) -> Sweep:
    """The fused-CD gate grid: the CLI's ``--cd-grid`` sweep, verbatim.

    Willard at two vote repetitions and cycling code search run on the
    history engine (24 points sharing tries where the protocol spec
    repeats); the decay baseline rides along as an 8-point schedule
    group.  Points are small and engine-bound - the regime where the
    stacked history loop amortizes per-round work across the grid.
    """
    data = copy.deepcopy(EXAMPLE_CD_SWEEP)
    data["base"]["trials"] = trials
    return Sweep.from_dict(data)
