"""Closed-form calculators for every bound in Tables 1 and 2.

One function per table cell (plus the iterated-log helpers they need), so
experiments, tests and the EXPERIMENTS.md generator
(``tools/generate_experiments_md.py``) all evaluate the paper's formulas
through a single audited implementation.  Lower bounds omit their
unknowable big-Omega constants - they are *shape* references the measured
curves are regressed against.
"""

from __future__ import annotations

import math

__all__ = [
    "log2_clamped",
    "loglog",
    "logloglog",
    "loglogloglog",
    "table1_nocd_lower",
    "table1_nocd_upper",
    "table1_cd_lower",
    "table1_cd_upper",
    "table2_det_nocd_lower",
    "table2_det_nocd_upper",
    "table2_det_cd_lower",
    "table2_det_cd_upper",
    "table2_rand_nocd",
    "table2_rand_cd",
]


def log2_clamped(value: float, floor: float = 1.0) -> float:
    """``max(log2(value), floor)`` - guards iterated logs of small inputs."""
    if value <= 0:
        raise ValueError(f"logarithm of non-positive value {value}")
    return max(math.log2(value), floor)


def loglog(n: float) -> float:
    """``log2 log2 n``, clamped to at least 1."""
    return log2_clamped(log2_clamped(n))


def logloglog(n: float) -> float:
    """``log2 log2 log2 n``, clamped to at least 1."""
    return log2_clamped(loglog(n))


def loglogloglog(n: float) -> float:
    """``log2 log2 log2 log2 n``, clamped to at least 1."""
    return log2_clamped(logloglog(n))


# ----------------------------------------------------------------------
# Table 1: contention resolution with network size predictions
# ----------------------------------------------------------------------
def table1_nocd_lower(entropy_bits: float, n: int) -> float:
    """No-CD lower bound shape: ``2^H / log log n`` (Theorem 2.4).

    Expected rounds for any uniform algorithm when the sizes follow a
    distribution of condensed entropy ``entropy_bits``; constant omitted.
    """
    if entropy_bits < 0:
        raise ValueError(f"entropy must be >= 0, got {entropy_bits}")
    return 2.0**entropy_bits / loglog(n)


def table1_nocd_upper(entropy_bits: float, divergence_bits: float = 0.0) -> float:
    """No-CD upper bound budget: ``2^(2H + 2D)`` (Theorem 2.12).

    Rounds within which sorted probing succeeds with probability >= 1/16;
    with ``divergence_bits = 0`` this is Corollary 2.15's ``2^(2H)``.
    """
    if entropy_bits < 0 or divergence_bits < 0:
        raise ValueError("entropy and divergence must be >= 0")
    return 2.0 ** (2.0 * entropy_bits + 2.0 * divergence_bits)


def table1_cd_lower(entropy_bits: float, n: int, *, slack_constant: float = 1.0) -> float:
    """CD lower bound shape: ``H/2 - c * log log log log n`` (Theorem 2.8).

    Clamped at 0: for low entropies the additive slack swallows the bound,
    exactly as in the paper.
    """
    if entropy_bits < 0:
        raise ValueError(f"entropy must be >= 0, got {entropy_bits}")
    return max(0.0, entropy_bits / 2.0 - slack_constant * loglogloglog(n))


def table1_cd_upper(entropy_bits: float, divergence_bits: float = 0.0) -> float:
    """CD upper bound budget: ``(H + D + 1)^2`` (Theorem 2.16).

    With ``divergence_bits = 0`` this is Corollary 2.18's ``O(H^2)``
    (the ``+1`` is Theorem 2.3's coding slack, kept explicit so the
    formula is a usable budget at small ``H``).
    """
    if entropy_bits < 0 or divergence_bits < 0:
        raise ValueError("entropy and divergence must be >= 0")
    base = entropy_bits + divergence_bits + 1.0
    return base * base


# ----------------------------------------------------------------------
# Table 2: contention resolution with perfect advice
# ----------------------------------------------------------------------
def table2_det_nocd_lower(n: int, advice_bits: float) -> float:
    """Deterministic no-CD lower bound: ``n^(1-alpha) / 2`` (Theorem 3.4).

    ``alpha = advice_bits / log2 n``; equivalently ``n / 2^b / 2``.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if advice_bits < 0:
        raise ValueError(f"advice must be >= 0 bits, got {advice_bits}")
    return max(1.0, n / 2.0**advice_bits / 2.0)


def table2_det_nocd_upper(n: int, advice_bits: int) -> float:
    """Deterministic no-CD upper bound: ``2^(ceil(log2 n) - b)`` rounds.

    The candidate-scan protocol's exact worst case (Section 3.2's tight
    construction).
    """
    width = max(1, math.ceil(math.log2(n)))
    return float(2 ** max(0, width - advice_bits))


def table2_det_cd_lower(n: int, advice_bits: float) -> float:
    """Deterministic CD lower bound: ``log2 n - b`` (Theorem 3.5)."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return max(0.0, math.log2(n) - advice_bits)


def table2_det_cd_upper(n: int, advice_bits: int) -> float:
    """Deterministic CD upper bound: ``ceil(log2 n) - b + 1`` rounds.

    The tree-descent protocol's exact worst case.
    """
    width = max(1, math.ceil(math.log2(n)))
    return float(max(1, width - advice_bits + 1))


def table2_rand_nocd(n: int, advice_bits: float) -> float:
    """Randomized no-CD tight bound shape: ``log2 n / 2^b`` (Theorem 3.6).

    Clamped at 1 (no protocol finishes in under one round).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return max(1.0, math.log2(n) / 2.0**advice_bits)


def table2_rand_cd(n: int, advice_bits: float) -> float:
    """Randomized CD tight bound shape: ``log log n - b`` (Theorem 3.7).

    Clamped at 1: for ``b >= log log n`` the paper solves in ``O(1)``.
    """
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    return max(1.0, loglog(n) - advice_bits)
