"""The perfect-advice model of Section 3.

An *advice function* ``f_A : P(V) -> {0,1}^b`` sees the exact participant
set ``P`` chosen by the adversary and hands every participant the same
``b``-bit string before round 1 (Section 3.1).  The protocols of Section 3
are co-designed with their advice functions; this module provides:

* :class:`AdviceFunction` - the interface, with budget validation and
  :meth:`~AdviceFunction.advise_many`, the advice of a whole batch as
  the int64 values its strings read (the batch engines' form);
* :class:`NullAdvice` - ``b = 0`` (the classical no-advice setting);
* :class:`MinIdPrefixAdvice` - the first ``b`` bits of the smallest active
  player's id, i.e. the first ``b`` steps of a balanced-binary-tree
  traversal towards an active leaf.  Drives both deterministic upper
  bounds of Section 3.2;
* :class:`RangeBlockAdvice` - identifies which of ``2^b`` consecutive
  blocks of the geometric ranges ``L(n)`` contains the true range
  ``ceil(log2 k)``.  Drives the randomized upper bounds (truncated decay,
  Theorem 3.6; truncated Willard, Theorem 3.7);
* :class:`FullIdAdvice` - ``b = ceil(log2 n)`` bits naming one active
  player outright (the ``b >= log n`` regime where one round suffices).
"""

from __future__ import annotations

import abc
import math
from collections.abc import Collection, Sequence

import numpy as np

from ..infotheory.condense import num_ranges, range_of_size

__all__ = [
    "AdviceFunction",
    "NullAdvice",
    "MinIdPrefixAdvice",
    "RangeBlockAdvice",
    "FullIdAdvice",
    "AdviceError",
    "id_bit_width",
    "id_to_bits",
    "bits_to_int",
    "range_blocks",
]


#: Participant sets, one per trial, as :meth:`AdviceFunction.advise_many`
#: takes them.
ParticipantSets = Sequence[Collection[int]]


class AdviceError(ValueError):
    """Raised on malformed advice or violated advice budgets."""


def id_bit_width(n: int) -> int:
    """Bits needed to name any of ``n`` player ids ``0..n-1``."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return max(1, math.ceil(math.log2(n)))


def id_to_bits(player_id: int, width: int) -> str:
    """Fixed-width big-endian binary encoding of a player id."""
    if player_id < 0:
        raise AdviceError(f"player id must be >= 0, got {player_id}")
    if player_id >= 2**width:
        raise AdviceError(f"player id {player_id} does not fit in {width} bits")
    return format(player_id, "b").zfill(width)


def bits_to_int(bits: str) -> int:
    """Decode a big-endian bit string to an integer (empty string -> 0)."""
    if any(bit not in "01" for bit in bits):
        raise AdviceError(f"malformed bit string {bits!r}")
    return int(bits, 2) if bits else 0


def range_blocks(total_ranges: int, bits: int) -> list[list[int]]:
    """Partition ranges ``1..total_ranges`` into ``2^bits`` consecutive blocks.

    Used by :class:`RangeBlockAdvice` and the randomized advice protocols:
    with ``b`` bits the search space shrinks from ``L`` ranges to a block of
    ``ceil(L / 2^b)``.  Trailing blocks may be empty when ``2^bits``
    exceeds the range count; they are returned empty so block indices and
    advice strings stay in bijection.
    """
    if total_ranges < 1:
        raise ValueError("total_ranges must be >= 1")
    if bits < 0:
        raise ValueError("bits must be >= 0")
    block_count = 2**bits
    block_size = math.ceil(total_ranges / block_count)
    blocks: list[list[int]] = []
    for index in range(block_count):
        start = index * block_size + 1
        stop = min(start + block_size - 1, total_ranges)
        blocks.append(list(range(start, stop + 1)) if start <= stop else [])
    return blocks


class AdviceFunction(abc.ABC):
    """Interface of Section 3.1's advice functions.

    Attributes
    ----------
    bits:
        The budget ``b``: every advice string must have exactly this many
        bits (shorter strings can always be padded, so fixing the length
        loses no generality and keeps decoding trivial).
    """

    def __init__(self, bits: int) -> None:
        if bits < 0:
            raise AdviceError(f"advice budget must be >= 0, got {bits}")
        self.bits = bits

    @abc.abstractmethod
    def advise(self, participants: Collection[int], n: int) -> str:
        """The advice string for participant set ``participants``.

        Implementations must return exactly :attr:`bits` bits; use
        :meth:`checked_advise` in harnesses to enforce the budget.
        """

    def checked_advise(self, participants: Collection[int], n: int) -> str:
        """Like :meth:`advise` but validates the budget and participant set."""
        if not participants:
            raise AdviceError("participant set must be non-empty")
        for player_id in participants:
            if not 0 <= player_id < n:
                raise AdviceError(
                    f"player id {player_id} outside 0..{n - 1}"
                )
        advice = self.advise(participants, n)
        if len(advice) != self.bits:
            raise AdviceError(
                f"advice {advice!r} has {len(advice)} bits, budget is {self.bits}"
            )
        if any(bit not in "01" for bit in advice):
            raise AdviceError(f"malformed advice {advice!r}")
        return advice

    def advise_many(self, participant_sets: ParticipantSets, n: int) -> np.ndarray:
        """One int64 advice value per set: its string read in base 2.

        The batch engines' form of the advice (``""`` reads 0).  This
        default decodes :meth:`checked_advise` set by set, in order, so a
        subclass that implements only :meth:`advise` keeps its checks,
        messages and draws.  An override must return the same values and
        leave any generator it draws from where this default leaves it;
        it may leave the id range check to the engines, which make it
        once on the packed ids.
        """
        strings = [self.checked_advise(s, n) for s in participant_sets]
        return np.array([int(s or "0", 2) for s in strings], dtype=np.int64)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} b={self.bits}>"


class NullAdvice(AdviceFunction):
    """No advice (``b = 0``): the classical setting."""

    def __init__(self) -> None:
        super().__init__(bits=0)

    def advise(self, participants: Collection[int], n: int) -> str:
        del participants, n
        return ""

    def advise_many(self, participant_sets: ParticipantSets, n: int) -> np.ndarray:
        del n
        return np.zeros(len(participant_sets), dtype=np.int64)


class MinIdPrefixAdvice(AdviceFunction):
    """First ``b`` bits of the minimum active player's id.

    Viewing ids as leaves of a balanced binary tree of height
    ``ceil(log2 n)``, this is the first ``b`` steps of the root-to-leaf
    traversal towards the smallest participant - precisely the advice the
    paper's deterministic upper bounds deploy (Section 3.2).  Any fixed
    tie-break rule works; minimum-id keeps executions reproducible.
    """

    def advise(self, participants: Collection[int], n: int) -> str:
        width = self._width(n)
        target = min(participants)
        return id_to_bits(target, width)[: self.bits]

    def advise_many(self, participant_sets: ParticipantSets, n: int) -> np.ndarray:
        # The engines check the ids; a prefix is the id's top bits.
        shift = self._width(n) - self.bits
        if not all(participant_sets):
            raise AdviceError("participant set must be non-empty")
        return np.array([min(s) for s in participant_sets], dtype=np.int64) >> shift

    def _width(self, n: int) -> int:
        width = id_bit_width(n)
        if self.bits > width:
            raise AdviceError(
                f"budget {self.bits} exceeds id width {width} for n={n}"
            )
        return width


class RangeBlockAdvice(AdviceFunction):
    """Index of the range block containing the true range ``ceil(log2 k)``.

    Partition ``L(n)`` into ``2^b`` consecutive blocks
    (:func:`range_blocks`); the advice is the ``b``-bit index of the block
    containing the participant count's range.  With ``b >= log2 L`` each
    block is a single range, i.e. the advice pins the range exactly - the
    regime Theorem 3.7 solves in ``O(1)``.

    Participant sets of size 1 are mapped to range 1 (the paper assumes
    ``k >= 2``; protocols handle ``k = 1`` with a dedicated all-transmit
    round, so the advice value is immaterial there).
    """

    def advise(self, participants: Collection[int], n: int) -> str:
        total = num_ranges(n)
        k = len(participants)
        true_range = 1 if k < 2 else range_of_size(k)
        if true_range > total:
            raise AdviceError(
                f"range {true_range} not covered by blocks for n={n}, b={self.bits}"
            )
        # The block of :func:`range_blocks` holding it, without building them.
        index = (true_range - 1) // -(-total // 2**self.bits)
        return id_to_bits(index, self.bits) if self.bits else ""


class FullIdAdvice(AdviceFunction):
    """``ceil(log2 n)`` bits naming the minimum active player outright.

    The ``b >= log n`` endpoint of Section 3: contention resolution in one
    round, since every participant learns exactly who should transmit.
    """

    def __init__(self, n: int) -> None:
        super().__init__(bits=id_bit_width(n))
        self._n = n

    def advise(self, participants: Collection[int], n: int) -> str:
        if n != self._n:
            raise AdviceError(f"advice built for n={self._n}, used with n={n}")
        return id_to_bits(min(participants), self.bits)
