"""Batch vs scalar player-protocol estimation at Table-2 scale.

The acceptance benchmark for the vectorized player engine: the Table-2
deterministic no-CD scan at its suffix-adversary worst case (n = 2^16,
b = 8 -> 256-round executions) must run >= 5x faster on the batch
substrate than on the scalar per-player loop, with matching statistics
(exactly matching for the deterministic cells - the batch sessions run
the same state machine).  The CD descent and binary-exponential-backoff
cells are gated more loosely and reported for the trajectory.

The cells mirror the Table 2 experiments on the full board: the
deterministic no-CD candidate scan at its suffix-adversary worst case
(the Table-2 workload proper - hundreds of rounds per trial is where the
scalar per-player loop hurts most), the CD tree descent under a random
adversary at practical contention, and binary exponential backoff (the
practical MAC comparator driving the example scenarios).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis.montecarlo import estimate_player_rounds
from repro.channel.channel import (
    Channel,
    with_collision_detection,
    without_collision_detection,
)
from repro.channel.network import Adversary, RandomAdversary, SuffixAdversary
from repro.core.advice import AdviceFunction, MinIdPrefixAdvice
from repro.core.protocol import PlayerProtocol
from repro.protocols.advice_deterministic import (
    DeterministicScanProtocol,
    DeterministicTreeDescentProtocol,
)
from repro.protocols.backoff import BinaryExponentialBackoff

from .conftest import record, timed

N = 2**16
TRIALS = 2000
SEED = 2021


@dataclass(frozen=True)
class PlayerCell:
    """One batch-vs-scalar player measurement: protocol + workload."""

    name: str
    protocol: PlayerProtocol
    adversary: Adversary
    k: int
    channel: Channel
    advice_function: AdviceFunction | None
    trials: int
    max_rounds: int
    #: Enforced speedup floor (the scan cell carries the acceptance >= 5x).
    min_speedup: float


_SCAN = DeterministicScanProtocol(8)
_DESCENT = DeterministicTreeDescentProtocol(0)

#: The benchmark cells.  Backoff runs a fifth of the trials: its scalar
#: loop is the costly one.
CELLS = [
    PlayerCell(
        name="det_scan_suffix",
        protocol=_SCAN,
        adversary=SuffixAdversary(),
        k=2,
        channel=without_collision_detection(),
        advice_function=MinIdPrefixAdvice(8),
        trials=TRIALS,
        max_rounds=_SCAN.worst_case_rounds(N) + 1,
        min_speedup=5.0,
    ),
    PlayerCell(
        name="tree_descent_random",
        protocol=_DESCENT,
        adversary=RandomAdversary(),
        k=64,
        channel=with_collision_detection(),
        advice_function=MinIdPrefixAdvice(0),
        trials=TRIALS,
        max_rounds=_DESCENT.worst_case_rounds(N) + 1,
        min_speedup=2.0,
    ),
    PlayerCell(
        name="backoff_random",
        protocol=BinaryExponentialBackoff(),
        adversary=RandomAdversary(),
        k=64,
        channel=with_collision_detection(),
        advice_function=None,
        trials=TRIALS // 5,
        max_rounds=4096,
        min_speedup=3.0,
    ),
]


def _estimate(cell: PlayerCell, batch: bool):
    return estimate_player_rounds(
        cell.protocol,
        lambda rng: cell.adversary.checked_select(N, cell.k, rng),
        N,
        np.random.default_rng(SEED),
        channel=cell.channel,
        advice_function=cell.advice_function,
        trials=cell.trials,
        max_rounds=cell.max_rounds,
        batch=batch,
    )


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.name)
def test_bench_player_batch_vs_scalar(benchmark, cell: PlayerCell):
    scalar, scalar_seconds = timed(lambda: _estimate(cell, False))
    batched, batch_seconds = timed(lambda: _estimate(cell, True))
    benchmark.pedantic(
        lambda: _estimate(cell, True), rounds=3, iterations=1, warmup_rounds=1
    )

    speedup = scalar_seconds / batch_seconds
    record(
        benchmark, f"{cell.name} (k={cell.k}, trials={cell.trials})",
        scalar_seconds=scalar_seconds, batch_seconds=batch_seconds,
        speedup=speedup,
    )
    assert batched.success.rate == pytest.approx(scalar.success.rate, abs=0.03)
    if cell.name != "backoff_random":
        # Deterministic cells: the two engines run the same state machine
        # on the same participant draws, so the statistics match exactly.
        assert batched.rounds == scalar.rounds
    elif scalar.any_successes and batched.any_successes:
        assert batched.rounds.mean == pytest.approx(
            scalar.rounds.mean, rel=0.1, abs=0.5
        )
    assert speedup >= cell.min_speedup, (
        f"player batch engine only {speedup:.1f}x faster than the scalar "
        f"per-player loop on {cell.name} "
        f"({batch_seconds:.3f}s vs {scalar_seconds:.3f}s)"
    )
