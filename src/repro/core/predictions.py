"""Prediction inputs: packaging a predicted size distribution for protocols.

Section 2 gives algorithms "the definition of a random variable Y defined
over network sizes" - i.e. the full predicted distribution.  A
:class:`Prediction` bundles that distribution with the derived artefacts
the algorithms actually consume:

* the condensed distribution ``c(Y)`` over geometric ranges;
* the probe order (ranges sorted by non-increasing predicted likelihood),
  used by the no-CD sorted-probing algorithm of Section 2.5;
* the optimal prefix code for ``c(Y)`` whose length classes structure the
  CD algorithm of Section 2.6;
* divergence/entropy accounting against a ground-truth distribution, to
  evaluate the Theorem 2.12 / 2.16 budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..infotheory.condense import CondensedDistribution
from ..infotheory.distributions import SizeDistribution

if TYPE_CHECKING:
    from ..infotheory.coding import PrefixCode

__all__ = ["Prediction", "BudgetReport"]


@dataclass(frozen=True)
class BudgetReport:
    """The closed-form round budgets of Theorems 2.12 and 2.16.

    Attributes
    ----------
    entropy_bits:
        ``H(c(X))`` of the true distribution.
    divergence_bits:
        ``D_KL(c(X) || c(Y))`` - zero for perfect predictions.
    nocd_exponent:
        ``T = 2 H + 2 D`` (Theorem 2.12); the no-CD algorithm succeeds with
        probability >= 1/16 within ``O(2^T)`` rounds.
    nocd_budget_rounds:
        ``2^T`` (the O-constant is 1 in the paper's Lemma 2.14 accounting:
        the success round is ``<= 2^{S+1}`` with ``S <= 2(H+D+1)`` w.p. 1/2).
    cd_budget_rounds:
        ``(H + D + 1)^2`` up to constants (Theorem 2.16).
    """

    entropy_bits: float
    divergence_bits: float

    @property
    def nocd_exponent(self) -> float:
        return 2.0 * (self.entropy_bits + self.divergence_bits)

    @property
    def nocd_budget_rounds(self) -> float:
        return 2.0**self.nocd_exponent

    @property
    def cd_budget_rounds(self) -> float:
        base = self.entropy_bits + self.divergence_bits + 1.0
        return base * base


@dataclass
class Prediction:
    """A predicted network-size distribution and its derived artefacts.

    Parameters
    ----------
    distribution:
        The predicted :class:`SizeDistribution` ``Y``.

    All derived values are computed lazily and cached: condensation, the
    probe order of Section 2.5 and the optimal code of Section 2.6.
    """

    distribution: SizeDistribution
    _condensed: CondensedDistribution | None = field(
        default=None, init=False, repr=False
    )
    _probe_order: list[int] | None = field(default=None, init=False, repr=False)
    _code: PrefixCode | None = field(default=None, init=False, repr=False)

    @property
    def n(self) -> int:
        """Maximum network size the prediction covers."""
        return self.distribution.n

    @property
    def condensed(self) -> CondensedDistribution:
        """``c(Y)`` - the condensed predicted distribution."""
        if self._condensed is None:
            self._condensed = self.distribution.condense()
        return self._condensed

    @property
    def probe_order(self) -> list[int]:
        """Ranges by non-increasing predicted probability (ties by index).

        The ordering ``pi`` of Section 2.5.1: the no-CD algorithm transmits
        with probability ``2^-pi_i`` in round ``i``.
        """
        if self._probe_order is None:
            self._probe_order = self.condensed.sorted_ranges()
        return list(self._probe_order)

    @property
    def optimal_code(self) -> PrefixCode:
        """Optimal prefix code for ``c(Y)`` (Section 2.6's ``f``).

        Symbol ``i`` of the code corresponds to range ``i + 1``.
        """
        if self._code is None:
            from ..infotheory.huffman import optimal_code_for

            self._code = optimal_code_for(self.condensed)
        return self._code

    def code_length_classes(self) -> dict[int, list[int]]:
        """Ranges grouped by codeword length: the classes ``pi_l`` of §2.6.

        Returns a dict mapping codeword length ``l`` to the sorted list of
        *range indices* (1-based) whose codewords have length ``l``.
        """
        classes = self.optimal_code.symbols_by_length()
        return {
            length: [symbol + 1 for symbol in symbols]
            for length, symbols in classes.items()
        }

    def budget_against(self, truth: SizeDistribution) -> BudgetReport:
        """Theorem 2.12/2.16 budgets when the real sizes come from ``truth``."""
        if truth.n != self.n:
            raise ValueError(
                f"truth has n={truth.n} but prediction has n={self.n}"
            )
        truth_condensed = truth.condense()
        return BudgetReport(
            entropy_bits=truth_condensed.entropy(),
            divergence_bits=truth_condensed.kl_divergence(self.condensed),
        )

    def self_budget(self) -> BudgetReport:
        """Budgets for a perfect prediction (``Y = X``; Corollaries 2.15/2.18)."""
        return BudgetReport(
            entropy_bits=self.condensed.entropy(), divergence_bits=0.0
        )
