"""Every engine entry point refuses a round budget that is not an integer.

One shared check guards the scalar loops, the stacked uniform engines
and the player engines.  Before it, a float budget played ``floor``
rounds on the batch uniform engine while the result kept the float
``max_rounds`` (so ``gave_up()`` read every censored trial as a
one-shot give-up), the scalar loops and the player engines raised a
stray ``TypeError``, and a bool ran as a 1-round budget.  NumPy
integers are budgets like any other integer.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.channel import (
    Channel,
    run_history_stacked,
    run_players,
    run_players_batch,
    run_players_stacked,
    run_schedule_stacked,
    run_uniform,
    run_uniform_batch,
)
from repro.core.advice import MinIdPrefixAdvice
from repro.protocols import (
    DecayProtocol,
    DeterministicScanProtocol,
    WillardProtocol,
)

N = 2**8
KS = np.full(8, 30)
SETS = [frozenset({1, 5}), frozenset({40, 41, 200}), frozenset({7})]


def _rng() -> np.random.Generator:
    return np.random.default_rng(0)


ENTRY_POINTS = {
    "run_uniform": lambda budget: run_uniform(
        DecayProtocol(N), 30, _rng(), channel=Channel(False),
        max_rounds=budget,
    ),
    "run_uniform_batch": lambda budget: run_uniform_batch(
        DecayProtocol(N), KS, _rng(), channel=Channel(False),
        max_rounds=budget,
    ),
    "run_schedule_stacked": lambda budget: run_schedule_stacked(
        [DecayProtocol(N).batch_schedule()], [KS], [_rng()],
        channel=Channel(False), max_rounds=budget,
    ),
    "run_history_stacked": lambda budget: run_history_stacked(
        [WillardProtocol(N)], [KS], [_rng()], channel=Channel(True),
        max_rounds=budget,
    ),
    "run_players": lambda budget: run_players(
        DeterministicScanProtocol(2), SETS[0], N, _rng(),
        channel=Channel(False), advice_function=MinIdPrefixAdvice(2),
        max_rounds=budget,
    ),
    "run_players_batch": lambda budget: run_players_batch(
        DeterministicScanProtocol(2), SETS, N, _rng(), channel=Channel(False),
        advice_function=MinIdPrefixAdvice(2), max_rounds=budget,
    ),
    "run_players_stacked": lambda budget: run_players_stacked(
        DeterministicScanProtocol(2), SETS, N,
        [MinIdPrefixAdvice(2).advise(s, N) for s in SETS],
        channel=Channel(False), max_rounds=budget,
    ),
}


def _outcome(result) -> list[tuple[list, list, int]]:
    runs = result if isinstance(result, list) else [result]
    return [
        (
            np.atleast_1d(run.solved).tolist(),
            np.atleast_1d(run.rounds).tolist(),
            run.max_rounds,
        )
        for run in runs
    ]


@pytest.mark.parametrize(
    "budget", [2.5, 3.0, np.float64(4.0), True, False, "5", None], ids=repr
)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_integer_budget_is_refused(entry, budget):
    message = f"round budget must be an integer >= 1, got {budget!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ENTRY_POINTS[entry](budget)


@pytest.mark.parametrize("budget", [0, -3, np.int64(0)], ids=repr)
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_budget_below_one_is_refused(entry, budget):
    with pytest.raises(ValueError, match="round budget must be >= 1, got"):
        ENTRY_POINTS[entry](budget)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_numpy_integer_budget_runs_like_an_int(entry):
    assert _outcome(ENTRY_POINTS[entry](np.int64(5))) == _outcome(
        ENTRY_POINTS[entry](5)
    )
