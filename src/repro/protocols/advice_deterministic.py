"""Deterministic perfect-advice protocols (Section 3.2 upper bounds).

Both protocols view the ``n`` player ids as leaves of a balanced binary
tree of height ``w = ceil(log2 n)`` and pair with
:class:`~repro.core.advice.MinIdPrefixAdvice`, whose ``b`` bits are the
first ``b`` steps of the root-to-leaf traversal towards the smallest
active participant.

* **No collision detection** - :class:`DeterministicScanProtocol`: the
  advice pins a subtree of ``2^(w-b)`` leaves containing an active player;
  the protocol gives each candidate leaf its own round, in ascending id
  order.  Any round whose candidate is active has exactly one transmitter,
  so the problem is solved within ``2^(w-b) ~ n / 2^b`` rounds - matching
  the ``t(n) >= n^(1-alpha)/2`` lower bound of Theorem 3.4 within a
  constant factor.

* **Collision detection** - :class:`DeterministicTreeDescentProtocol`:
  complete the traversal using collision votes.  Each round, active
  players in the left child subtree transmit: silence means the left
  subtree is empty (descend right), a collision means it holds >= 2 active
  players (descend left), success ends the execution.  After ``w - b``
  descents the subtree is a single active leaf, which then transmits
  alone: at most ``log n - b + 1`` rounds, matching Theorem 3.5's
  ``t(n) >= log n - b`` lower bound within one round.
"""

from __future__ import annotations

import numpy as np

from ..core.advice import AdviceError, bits_to_int, id_bit_width, id_to_bits
from ..core.feedback import Observation
from ..core.protocol import (
    OBS_COLLISION,
    OBS_QUIET,
    PlayerBatchSessions,
    PlayerProtocol,
    PlayerSession,
    ProtocolError,
    ScheduleExhausted,
)

__all__ = [
    "DeterministicScanProtocol",
    "DeterministicTreeDescentProtocol",
]


class _ScanSession(PlayerSession):
    """Per-player state of the no-CD candidate scan."""

    def __init__(self, player_id: int, n: int, advice: str) -> None:
        width = id_bit_width(n)
        if len(advice) > width:
            raise AdviceError(
                f"advice {advice!r} longer than id width {width} for n={n}"
            )
        self._rounds_total = 2 ** (width - len(advice))
        my_bits = id_to_bits(player_id, width)
        if my_bits.startswith(advice):
            # Slot index = position of this id within the advised subtree.
            self._slot: int | None = bits_to_int(my_bits[len(advice):])
        else:
            self._slot = None
        self._round = 0

    def decide(self) -> bool:
        if self._round >= self._rounds_total:
            raise ScheduleExhausted(
                "candidate scan exhausted the advised subtree"
            )
        transmit = self._slot is not None and self._slot == self._round
        self._round += 1
        return transmit

    def observe(self, observation: Observation, *, transmitted: bool) -> None:
        # Oblivious: the scan schedule is fixed by the advice alone.
        del observation, transmitted


def _advice_ints(
    advice: np.ndarray, bits: int, width: int, n: int
) -> np.ndarray:
    """A copy of the per-trial int64 advice, after the width check.

    The engine entry points have already checked each value against
    ``[0, 2**bits)``, so only the scalar sessions' width check is left,
    and it holds for every trial at once; its message shows the first
    trial's advice as the string the scalar session would refuse.  The
    safe cast refuses advice strings, which a plain cast would read as
    decimal numbers.
    """
    if bits > width:
        raise AdviceError(
            f"advice '{advice[0]:0{bits}b}' longer than id width {width} for n={n}"
        )
    return np.asarray(advice).astype(np.int64, casting="safe")


class _ScanBatchSessions(PlayerBatchSessions):
    """The candidate scan as integer compares against precomputed slots.

    A player's whole schedule is one number: the slot of its id within
    the advised subtree (or -1 when the advice excludes it), so round
    ``r`` of every trial is a single ``slots == r - 1`` compare.  The
    scan is oblivious and all trials share the advice length, so the
    round counter is global and exhaustion hits every live trial at once.
    The scan reads no feedback and draws nothing, so it also counts a
    whole block of rounds in one :meth:`block_counts` call: each player
    transmits at most once, in the block column ``slot - round``.
    """

    def __init__(
        self, ids: np.ndarray, n: int, advice: np.ndarray, bits: int
    ) -> None:
        width = id_bit_width(n)
        targets = _advice_ints(advice, bits, width, n)
        self._rounds_total = 2 ** (width - bits)
        valid = ids >= 0
        prefixes = np.where(valid, ids, 0) >> (width - bits)
        advised = valid & (prefixes == targets[:, None])
        # Slot index = position of this id within the advised subtree.
        self._slots = np.where(advised, ids & (self._rounds_total - 1), -1)
        self._round = 0

    def decide(self, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._round >= self._rounds_total:
            return (
                np.zeros((live.size, self._slots.shape[1]), dtype=bool),
                np.ones(live.size, dtype=bool),
            )
        decisions = np.take(self._slots, live, axis=0) == self._round
        self._round += 1
        return decisions, np.zeros(live.size, dtype=bool)

    def block_counts(
        self, live: np.ndarray, width: int
    ) -> tuple[np.ndarray, int]:
        playable = max(0, min(width, self._rounds_total - self._round))
        offsets = (np.take(self._slots, live, axis=0) - self._round).ravel()
        sent = np.flatnonzero((offsets >= 0) & (offsets < playable))
        # One bincount over (row, column) cells; a 3-d (rows, width,
        # players) compare-and-sum reduces the short player axis slowly.
        rows = sent // self._slots.shape[1]
        counts = np.bincount(
            rows * width + offsets[sent], minlength=live.size * width
        ).reshape(live.size, width)
        self._round += width
        return counts, playable

    def observe(
        self, live: np.ndarray, observations: np.ndarray, decisions: np.ndarray
    ) -> None:
        # Oblivious: the scan schedule is fixed by the advice alone.
        del live, observations, decisions


class DeterministicScanProtocol(PlayerProtocol):
    """No-CD deterministic protocol: one round per candidate id.

    Parameters
    ----------
    advice_bits:
        The advice budget ``b``; pair with
        ``MinIdPrefixAdvice(advice_bits)``.

    Worst-case rounds: ``2^(ceil(log2 n) - b)``, i.e. ``Theta(n / 2^b)``.
    """

    requires_collision_detection = False

    def __init__(self, advice_bits: int) -> None:
        if advice_bits < 0:
            raise ValueError(f"advice budget must be >= 0, got {advice_bits}")
        self.advice_bits = advice_bits
        self.name = f"det-scan(b={advice_bits})"

    def session(
        self,
        player_id: int,
        n: int,
        advice: str,
        rng: np.random.Generator | None = None,
    ) -> _ScanSession:
        del rng  # deterministic protocol
        return _ScanSession(player_id, n, advice)

    def supports_batch_sessions(self) -> bool:
        return True

    def supports_fused_sessions(self) -> bool:
        """Fully deterministic: nothing drawn, rows never interact."""
        return True

    def batch_sessions(
        self,
        player_ids: np.ndarray,
        n: int,
        advice: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> _ScanBatchSessions:
        del rng  # deterministic protocol
        return _ScanBatchSessions(player_ids, n, advice, self.advice_bits)

    def worst_case_rounds(self, n: int) -> int:
        """The exact worst-case round count ``2^(w - b)``."""
        return 2 ** max(0, id_bit_width(n) - self.advice_bits)


class _TreeDescentSession(PlayerSession):
    """Per-player state of the CD tree descent."""

    def __init__(self, player_id: int, n: int, advice: str) -> None:
        self._width = id_bit_width(n)
        if len(advice) > self._width:
            raise AdviceError(
                f"advice {advice!r} longer than id width {self._width} for n={n}"
            )
        self._my_bits = id_to_bits(player_id, self._width)
        self._prefix = advice
        self._failed = False

    def decide(self) -> bool:
        if self._failed:
            # Faulty advice pointed at an empty subtree: the descent has
            # provably failed, so the execution gives up cleanly (callers
            # can wrap with a fallback protocol; see protocols/restart.py).
            raise ScheduleExhausted(
                "tree descent reached an inactive leaf; the advised subtree "
                "held no active player"
            )
        if len(self._prefix) == self._width:
            # Leaf reached: the unique candidate transmits alone.
            return self._my_bits == self._prefix
        # Probe the left child: active players under prefix+'0' transmit.
        return self._my_bits.startswith(self._prefix + "0")

    def observe(self, observation: Observation, *, transmitted: bool) -> None:
        del transmitted
        if observation is Observation.QUIET:
            raise ProtocolError(
                "tree descent requires collision detection; got a no-CD "
                "observation"
            )
        if len(self._prefix) == self._width:
            # A leaf-round non-success means the advice was faulty (the
            # advised subtree holds no active player): give up next round.
            self._failed = True
            return
        if observation is Observation.COLLISION:
            # >= 2 active players under the left child.
            self._prefix += "0"
        else:
            # Silence: the left child subtree holds no active player.
            self._prefix += "1"


class _TreeDescentBatchSessions(PlayerBatchSessions):
    """All trials' descents as one integer prefix per trial.

    The scalar session's bit-string prefix becomes an int64 column (the
    value of the first ``depth`` traversal bits); a collision appends a 0
    (descend left, ``prefix * 2``), silence a 1 (``prefix * 2 + 1``).
    All trials start from the same advice length and descend one level
    per round, so the depth is global while the prefix values and the
    failed-at-leaf flags are per-trial.
    """

    def __init__(
        self, ids: np.ndarray, n: int, advice: np.ndarray, bits: int
    ) -> None:
        self._width = id_bit_width(n)
        self._ids = ids
        self._valid = ids >= 0
        self._prefixes = _advice_ints(advice, bits, self._width, n)
        self._depth = bits
        self._failed = np.zeros(len(advice), dtype=bool)

    def decide(self, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Faulty advice pointed at an empty subtree: the descent has
        # provably failed, so those trials give up cleanly (the batch
        # analogue of the scalar session's ScheduleExhausted).
        exhausted = self._failed[live]
        targets = self._prefixes[live][:, None]
        if self._depth == self._width:
            # Leaf reached: the unique candidate transmits alone.
            decisions = self._valid[live] & (self._ids[live] == targets)
        else:
            # Probe the left child: active players under prefix+'0'
            # transmit.
            shift = self._width - self._depth - 1
            decisions = self._valid[live] & (
                (self._ids[live] >> shift) == targets * 2
            )
        decisions[exhausted] = False
        return decisions, exhausted

    def observe(
        self, live: np.ndarray, observations: np.ndarray, decisions: np.ndarray
    ) -> None:
        del decisions
        if (observations == OBS_QUIET).any():
            raise ProtocolError(
                "tree descent requires collision detection; got a no-CD "
                "observation"
            )
        if self._depth == self._width:
            # A leaf-round non-success means the advice was faulty (the
            # advised subtree holds no active player): give up next round.
            self._failed[live] = True
            return
        # Collision: >= 2 active players under the left child, descend
        # left (append 0).  Silence: the left child is empty, descend
        # right (append 1).
        self._prefixes[live] = self._prefixes[live] * 2 + (
            observations != OBS_COLLISION
        )
        self._depth += 1


class DeterministicTreeDescentProtocol(PlayerProtocol):
    """CD deterministic protocol: collision-vote descent from the advice.

    Parameters
    ----------
    advice_bits:
        The advice budget ``b``; pair with
        ``MinIdPrefixAdvice(advice_bits)``.

    Worst-case rounds: ``ceil(log2 n) - b + 1`` (the ``+1`` is the final
    solo round at the leaf), matching the paper's ``log n - b(n) + 1``.
    """

    requires_collision_detection = True

    def __init__(self, advice_bits: int) -> None:
        if advice_bits < 0:
            raise ValueError(f"advice budget must be >= 0, got {advice_bits}")
        self.advice_bits = advice_bits
        self.name = f"det-descent(b={advice_bits})"

    def session(
        self,
        player_id: int,
        n: int,
        advice: str,
        rng: np.random.Generator | None = None,
    ) -> _TreeDescentSession:
        del rng  # deterministic protocol
        return _TreeDescentSession(player_id, n, advice)

    def supports_batch_sessions(self) -> bool:
        return True

    def supports_fused_sessions(self) -> bool:
        """Fully deterministic: nothing drawn, rows never interact."""
        return True

    def batch_sessions(
        self,
        player_ids: np.ndarray,
        n: int,
        advice: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> _TreeDescentBatchSessions:
        del rng  # deterministic protocol
        return _TreeDescentBatchSessions(player_ids, n, advice, self.advice_bits)

    def worst_case_rounds(self, n: int) -> int:
        """The exact worst-case round count ``w - b + 1``."""
        return max(1, id_bit_width(n) - self.advice_bits + 1)
