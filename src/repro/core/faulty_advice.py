"""Faulty advice: corrupted oracle bits and what they do to protocols.

Section 3 assumes *perfect* advice; the paper's related-work discussion
(Section 1.3) highlights that for learned advice "the challenge lies in
ensuring that they continue to perform well when the advice is faulty".
This module supplies the corruption models used by the robustness
experiment (``ADVICE-ROBUST``):

* :class:`BitFlipAdvice` - each advice bit flips independently with
  probability ``flip_probability`` (a noisy oracle);
* :class:`AdversarialAdvice` - the advice is replaced outright with
  probability ``error_probability`` by the bitwise complement (the worst
  single corruption for prefix advice: it points at the wrong subtree at
  the first flipped bit).

Corrupted advice can make the Section 3.2 deterministic protocols *fail*
(they trust the advice); the measured failure rates, and the cost of the
:class:`~repro.protocols.restart.FallbackProtocol` repair, are the
experiment's content.
"""

from __future__ import annotations

from collections.abc import Collection

import numpy as np

from .advice import AdviceFunction, ParticipantSets

__all__ = ["BitFlipAdvice", "AdversarialAdvice"]


class BitFlipAdvice(AdviceFunction):
    """Wraps an advice function; flips each bit independently.

    The RNG is injected at construction so corruption is reproducible;
    all participants of one execution still receive the *same* (possibly
    corrupted) string, preserving the Section 3.1 model - the oracle is
    noisy, not inconsistent.
    """

    def __init__(
        self,
        base: AdviceFunction,
        flip_probability: float,
        rng: np.random.Generator,
    ) -> None:
        if not 0.0 <= flip_probability <= 1.0:
            raise ValueError(
                f"flip probability must be in [0, 1], got {flip_probability}"
            )
        super().__init__(bits=base.bits)
        self.base = base
        self.flip_probability = flip_probability
        self._rng = rng

    def advise(self, participants: Collection[int], n: int) -> str:
        clean = self.base.advise(participants, n)
        if self.flip_probability == 0.0 or not clean:
            return clean
        flips = self._rng.random(len(clean)) < self.flip_probability
        return "".join(
            ("1" if bit == "0" else "0") if flipped else bit
            for bit, flipped in zip(clean, flips)
        )

    def advise_many(self, participant_sets: ParticipantSets, n: int) -> np.ndarray:
        clean = self.base.advise_many(participant_sets, n)
        if self.flip_probability == 0.0 or not self.bits:
            return clean
        # Row i holds set i's uniforms, the ones advise() draws for it;
        # column j flips bit j of the string, most significant first.
        flips = self._rng.random((len(clean), self.bits)) < self.flip_probability
        return clean ^ (flips @ (1 << np.arange(self.bits - 1, -1, -1)))


class AdversarialAdvice(AdviceFunction):
    """Wraps an advice function; occasionally substitutes the complement.

    With probability ``error_probability`` the advice string is replaced
    by its bitwise complement - for :class:`~repro.core.advice.
    MinIdPrefixAdvice` this is the most damaging same-length string, since
    its very first bit steers the protocol into the wrong half of the id
    tree.
    """

    def __init__(
        self,
        base: AdviceFunction,
        error_probability: float,
        rng: np.random.Generator,
    ) -> None:
        if not 0.0 <= error_probability <= 1.0:
            raise ValueError(
                f"error probability must be in [0, 1], got {error_probability}"
            )
        super().__init__(bits=base.bits)
        self.base = base
        self.error_probability = error_probability
        self._rng = rng

    def advise(self, participants: Collection[int], n: int) -> str:
        clean = self.base.advise(participants, n)
        if not clean or self._rng.random() >= self.error_probability:
            return clean
        return "".join("1" if bit == "0" else "0" for bit in clean)
