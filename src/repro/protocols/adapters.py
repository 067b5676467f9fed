"""Adapters bridging protocol representations.

The lower-bound machinery of Section 2.4 consumes uniform CD algorithms in
their *functional* form - a map from collision histories to probabilities
(:class:`~repro.core.uniform.HistoryPolicy`) - while the runnable protocols
here are implemented as stateful sessions for efficiency.  For a
*deterministic* uniform protocol the two are equivalent:
:func:`as_history_policy` recovers the functional form by replaying any
queried history through a fresh session.

Replay costs ``O(|history|)`` per query; the tree constructions only query
histories up to depth ``O(log log n + code length)``, so this is cheap.
A small prefix cache would be possible but is deliberately omitted -
sessions are stateful and cloning them is more fragile than replaying.
"""

from __future__ import annotations

import numpy as np

from ..channel.batch import is_batchable
from ..core.feedback import Observation
from ..core.protocol import (
    OBS_COLLISION,
    OBS_SILENCE,
    PlayerBatchSessions,
    PlayerProtocol,
    PlayerSession,
    ProtocolError,
    ScheduleExhausted,
    UniformProtocol,
    UniformSession,
)
from ..core.uniform import HistoryPolicy

__all__ = [
    "as_history_policy",
    "SessionReplayPolicy",
    "UniformAsPlayerProtocol",
]


class SessionReplayPolicy(HistoryPolicy):
    """Functional (history -> probability) view of a deterministic protocol.

    The wrapped protocol must be deterministic as a function of the
    observation history (true for every CD protocol in this library:
    schedules, Willard search, code search).  Queries replay the history
    bit string through a fresh session: bit 1 feeds ``COLLISION``, bit 0
    feeds ``SILENCE``.

    Histories that drive the session past its one-shot horizon raise
    :class:`~repro.core.protocol.ScheduleExhausted`; the tree constructions
    treat such nodes as absent.
    """

    def __init__(self, protocol: UniformProtocol, *, name: str | None = None):
        self._protocol = protocol
        self.name = name or f"policy({protocol.name})"

    def probability(self, history: str) -> float:
        self.validate_history(history)
        session = self._protocol.session()
        for bit in history:
            session.next_probability()
            session.observe(
                Observation.COLLISION if bit == "1" else Observation.SILENCE
            )
        return session.next_probability()

    def defined_on(self, history: str) -> bool:
        """Whether the protocol still schedules a round after ``history``."""
        try:
            self.probability(history)
        except ScheduleExhausted:
            return False
        return True


def as_history_policy(
    protocol: UniformProtocol, *, name: str | None = None
) -> SessionReplayPolicy:
    """Functional view of a deterministic uniform protocol.

    Works for both CD and no-CD protocols; for the latter the history is
    simply ignored by the underlying schedule (observations are fed but
    oblivious sessions discard them), so the policy is constant in the
    history bits, as expected of a fixed schedule.
    """
    return SessionReplayPolicy(protocol, name=name)


class _UniformPlayerSession(PlayerSession):
    def __init__(
        self, inner: UniformSession, rng: np.random.Generator
    ) -> None:
        self._inner = inner
        self._rng = rng
        self._probability: float | None = None

    def decide(self) -> bool:
        self._probability = self._inner.next_probability()
        return bool(self._rng.random() < self._probability)

    def observe(self, observation: Observation, *, transmitted: bool) -> None:
        del transmitted
        self._inner.observe(observation)


#: Batch observation code -> the Observation fed to scalar uniform
#: sessions on the per-trial path (QUIET is the no-CD default).
_OBSERVATION_FROM_CODE = {
    OBS_SILENCE: Observation.SILENCE,
    OBS_COLLISION: Observation.COLLISION,
}


class _UniformPlayerBatchSessions(PlayerBatchSessions):
    """Per-player Bernoulli draws against each trial's shared probability.

    Two inner representations, mirroring the uniform batch engines:

    * an oblivious inner protocol publishes its whole schedule
      (:meth:`~repro.core.protocol.UniformProtocol.batch_schedule`), so
      the round probability is an array lookup shared by every trial and
      no session objects exist at all;
    * a feedback-driven inner protocol with deterministic sessions keeps
      one scalar :class:`UniformSession` per trial - O(trials) Python
      calls per round instead of the scalar player engine's
      O(trials x players).

    Either way the round's decisions are one vectorized uniform draw over
    the live rows, so each player still transmits independently with the
    shared probability - semantically identical to the scalar adapter.
    """

    def __init__(
        self,
        uniform: UniformProtocol,
        mask: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        self._mask = mask
        self._rng = rng
        self._schedule = uniform.batch_schedule()
        self._round = 0
        if self._schedule is None:
            self._sessions: list[UniformSession | None] = [
                uniform.session() for _ in range(mask.shape[0])
            ]

    def _probabilities(self, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-live-trial round probabilities plus the exhausted mask."""
        if self._schedule is not None:
            spec = self._schedule
            if not spec.cycle and self._round >= len(spec.probabilities):
                return (
                    np.zeros(live.size),
                    np.ones(live.size, dtype=bool),
                )
            p = spec.probabilities[self._round % len(spec.probabilities)]
            return np.full(live.size, p), np.zeros(live.size, dtype=bool)
        probabilities = np.zeros(live.size)
        exhausted = np.zeros(live.size, dtype=bool)
        for row, trial in enumerate(live):
            session = self._sessions[trial]
            assert session is not None  # retired trials are never live
            try:
                probabilities[row] = session.next_probability()
            except ScheduleExhausted:
                exhausted[row] = True
                self._sessions[trial] = None
        return probabilities, exhausted

    def decide(self, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        probabilities, exhausted = self._probabilities(live)
        self._round += 1
        draws = self._rng.random((live.size, self._mask.shape[1]))
        decisions = (draws < probabilities[:, None]) & self._mask[live]
        decisions[exhausted] = False
        return decisions, exhausted

    def observe(
        self, live: np.ndarray, observations: np.ndarray, decisions: np.ndarray
    ) -> None:
        del decisions
        if self._schedule is not None:
            return  # oblivious: the schedule ignores feedback
        for row, trial in enumerate(live):
            session = self._sessions[trial]
            assert session is not None
            session.observe(
                _OBSERVATION_FROM_CODE.get(
                    int(observations[row]), Observation.QUIET
                )
            )


class UniformAsPlayerProtocol(PlayerProtocol):
    """Per-player view of a uniform protocol.

    Semantically identical to running the uniform protocol on the binomial
    fast path (each player independently transmits with the shared
    probability); used where the per-player engine is required, e.g. as
    the fallback half of
    :class:`~repro.protocols.restart.FallbackPlayerProtocol`.  Because the
    wrapped session is deterministic given the observation stream, all
    players stay in lock-step on CD channels.
    """

    advice_bits = 0

    def __init__(self, uniform: UniformProtocol) -> None:
        self._uniform = uniform
        self.requires_collision_detection = (
            uniform.requires_collision_detection
        )
        self.name = f"players({uniform.name})"

    def session(
        self,
        player_id: int,
        n: int,
        advice: str,
        rng: np.random.Generator | None = None,
    ) -> _UniformPlayerSession:
        del player_id, n, advice
        if rng is None:
            raise ProtocolError(
                "UniformAsPlayerProtocol needs the simulation rng"
            )
        return _UniformPlayerSession(self._uniform.session(), rng)

    def supports_batch_sessions(self) -> bool:
        """Batchable exactly when the wrapped uniform protocol is.

        A schedule-publishing or deterministic-session inner protocol
        (every uniform algorithm in the library, including the truncated
        advice protocols of Section 3) vectorizes; randomized-session
        wrappers keep the scalar path authoritative, mirroring
        :func:`repro.channel.batch.is_batchable`.
        """
        return is_batchable(self._uniform)

    def batch_sessions(
        self,
        player_ids: np.ndarray,
        n: int,
        advice: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> _UniformPlayerBatchSessions | None:
        del n, advice
        if rng is None:
            raise ProtocolError(
                "UniformAsPlayerProtocol needs the simulation rng"
            )
        if not self.supports_batch_sessions():
            return None
        return _UniformPlayerBatchSessions(self._uniform, player_ids >= 0, rng)
