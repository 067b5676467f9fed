"""Binary exponential backoff: the classical practical comparator.

Not an algorithm from the paper, but the contention-resolution strategy
deployed in real MACs (Ethernet, 802.11) and the natural "what practice
does today" baseline for the example scenarios.  Each player keeps a
contention window ``w``; every round it transmits with probability
``1/w``; on a detected collision it doubles ``w`` (up to a cap) and on
silence it halves ``w`` (down to the floor).  Requires collision
detection - without it a player cannot tell its window is too small.

The protocol is *non-uniform* (windows drift apart across players once
their transmission histories differ), so it exercises the per-player
simulation path and provides a non-uniform contrast to the paper's
uniform-algorithm assumption.
"""

from __future__ import annotations

import numpy as np

from ..core.feedback import Observation
from ..core.protocol import (
    OBS_COLLISION,
    OBS_QUIET,
    PlayerBatchSessions,
    PlayerProtocol,
    PlayerSession,
    ProtocolError,
)

__all__ = ["BinaryExponentialBackoff"]


class _BackoffSession(PlayerSession):
    def __init__(
        self,
        rng: np.random.Generator,
        initial_window: float,
        min_window: float,
        max_window: float,
    ) -> None:
        self._rng = rng
        self._window = initial_window
        self._min_window = min_window
        self._max_window = max_window

    def decide(self) -> bool:
        return bool(self._rng.random() < 1.0 / self._window)

    def observe(self, observation: Observation, *, transmitted: bool) -> None:
        del transmitted
        if observation is Observation.QUIET:
            raise ProtocolError(
                "binary exponential backoff requires collision detection"
            )
        if observation is Observation.COLLISION:
            self._window = min(self._window * 2.0, self._max_window)
        else:  # silence: the channel is under-used, be more aggressive
            self._window = max(self._window / 2.0, self._min_window)

    @property
    def window(self) -> float:
        """Current contention window (diagnostics)."""
        return self._window


class _BackoffBatchSessions(PlayerBatchSessions):
    """All trials' contention windows as one ``(trials, players)`` array.

    The scalar session's multiplicative window updates become masked
    vector operations; each round's decisions are one uniform draw over
    the live rows (``rng.random(shape) < 1/window``), so retired trials
    stop consuming randomness exactly as dropped scalar sessions do.
    """

    def __init__(
        self,
        mask: np.ndarray,
        rng: np.random.Generator,
        initial_window: float,
        min_window: float,
        max_window: float,
    ) -> None:
        self._mask = mask
        self._rng = rng
        self._windows = np.full(mask.shape, initial_window, dtype=float)
        self._min_window = min_window
        self._max_window = max_window

    def decide(self, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        draws = self._rng.random((live.size, self._mask.shape[1]))
        decisions = (draws < 1.0 / self._windows[live]) & self._mask[live]
        return decisions, np.zeros(live.size, dtype=bool)

    def observe(
        self, live: np.ndarray, observations: np.ndarray, decisions: np.ndarray
    ) -> None:
        del decisions
        if (observations == OBS_QUIET).any():
            raise ProtocolError(
                "binary exponential backoff requires collision detection"
            )
        windows = self._windows[live]
        collided = observations == OBS_COLLISION
        windows[collided] = np.minimum(
            windows[collided] * 2.0, self._max_window
        )
        windows[~collided] = np.maximum(
            windows[~collided] / 2.0, self._min_window
        )
        self._windows[live] = windows


class BinaryExponentialBackoff(PlayerProtocol):
    """Multiplicative increase / multiplicative decrease backoff.

    Parameters
    ----------
    initial_window:
        Starting contention window (default 2: transmit w.p. 1/2).
    max_window:
        Upper cap preventing unbounded starvation after long collision
        bursts (default ``2^20``).
    """

    requires_collision_detection = True
    advice_bits = 0

    def __init__(
        self, initial_window: float = 2.0, max_window: float = float(2**20)
    ) -> None:
        if initial_window < 1.0:
            raise ValueError("initial window must be >= 1")
        if max_window < initial_window:
            raise ValueError("max window must be >= initial window")
        self.initial_window = float(initial_window)
        self.max_window = float(max_window)
        self.name = f"beb(w0={initial_window:g})"

    def session(
        self,
        player_id: int,
        n: int,
        advice: str,
        rng: np.random.Generator | None = None,
    ) -> _BackoffSession:
        del player_id, n, advice
        if rng is None:
            raise ProtocolError(
                "binary exponential backoff is randomized and needs the "
                "simulation rng"
            )
        return _BackoffSession(
            rng, self.initial_window, min_window=1.0, max_window=self.max_window
        )

    def supports_batch_sessions(self) -> bool:
        return True

    def batch_sessions(
        self,
        player_ids: np.ndarray,
        n: int,
        advice: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> _BackoffBatchSessions:
        del n, advice  # identity- and advice-oblivious, like session()
        if rng is None:
            raise ProtocolError(
                "binary exponential backoff is randomized and needs the "
                "simulation rng"
            )
        return _BackoffBatchSessions(
            player_ids >= 0,
            rng,
            self.initial_window,
            min_window=1.0,
            max_window=self.max_window,
        )
