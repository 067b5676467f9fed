"""RF-Construction (Algorithm 1): schedules to range-finding sequences.

The no-CD lower bound (Theorem 2.4) transforms any uniform algorithm
``A = p_1, p_2, ...`` into a range-finding sequence ``S_A`` by
interleaving, for each round ``i``:

1. the *guess* ``ceil(log2(1 / p_i))`` - the range whose representative
   probability is closest below ``p_i``; and
2. one value of a counter cycling through all of ``L(n)``.

The cycling counter guarantees every range appears within the first
``2 * ceil(log2 n)`` slots (Case 2 of Lemma 2.7); the guesses guarantee
that whenever ``A`` succeeds quickly for sizes in range ``i``, a value
within ``O(log log n)`` of ``i`` appears within twice as many slots
(Case 1, via Lemma 2.6).  Lemma 2.7: ``S_A`` solves
``(n, alpha*log log n)``-range finding in expected time ``<= 2 t_X(n)``.

Paper-text note: Algorithm 1 reads "Append 2j" with ``j`` starting at 0
and resetting after ``ceil(log n)``.  The proof of Lemma 2.7 requires the
interleaved values to "correspond to all ranges" within the first
``2 log n`` slots, so the appended value must be the *range index* ``j``
(the range containing size ``2^j``); we cycle ``j`` through
``1..ceil(log2 n)`` accordingly.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from ..core.uniform import ProbabilitySchedule
from ..infotheory.condense import num_ranges
from .range_finding import SequenceRangeFinder, default_sequence_tolerance

__all__ = ["guess_from_probability", "rf_construction", "rf_range_finder"]


def guess_from_probability(p: float, n: int) -> int:
    """The range guess ``ceil(log2(1/p))`` clamped into ``L(n)``.

    ``p >= 1/2`` (more aggressive than any range's representative
    probability) clamps to range 1; ``p`` below ``2^-L`` (including 0)
    clamps to range ``L``.  Clamping only strengthens the construction:
    out-of-band probabilities cannot solve any range anyway (Lemma 2.6).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    count = num_ranges(n)
    if p <= 0.0:
        return count
    guess = math.ceil(math.log2(1.0 / p))
    return min(max(guess, 1), count)


def rf_construction(
    schedule: ProbabilitySchedule | Sequence[float], n: int
) -> list[int]:
    """Algorithm 1: interleave probability guesses with a range cycle.

    Returns the sequence ``S_A`` of range indices; its length is twice the
    schedule's.  Accepts either a :class:`ProbabilitySchedule` or a raw
    probability sequence.
    """
    probabilities = (
        schedule.probabilities
        if isinstance(schedule, ProbabilitySchedule)
        else tuple(schedule)
    )
    if not probabilities:
        raise ValueError("schedule must be non-empty")
    count = num_ranges(n)
    sequence: list[int] = []
    cycle_value = 1
    for p in probabilities:
        sequence.append(guess_from_probability(p, n))
        sequence.append(cycle_value)
        cycle_value = cycle_value + 1 if cycle_value < count else 1
    return sequence


def rf_range_finder(
    schedule: ProbabilitySchedule | Sequence[float],
    n: int,
    *,
    alpha: float = 1.0,
) -> SequenceRangeFinder:
    """RF-Construction packaged as a ready-to-evaluate range finder.

    The tolerance is Lemma 2.7's ``alpha * log2 log2 n``.
    """
    return SequenceRangeFinder(
        rf_construction(schedule, n),
        tolerance=default_sequence_tolerance(n, alpha),
    )
