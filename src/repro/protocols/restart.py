"""Restart and fallback wrappers: one-shot algorithms made resilient.

Two generic combinators used across the expected-time and robustness
experiments:

* :class:`RestartProtocol` - when a one-shot uniform protocol exhausts
  without success, start a fresh session and keep going.  Turns every
  constant-probability one-shot result (Theorems 2.12/2.16) into an
  expected-time protocol with a geometric number of attempts - the simple
  restart strategy the paper's footnote 6 contrasts with cleverer cycling
  (which the paper leaves open, and so do we: this wrapper is measured,
  not analysed).

* :class:`FallbackPlayerProtocol` - run a (possibly advice-trusting)
  player protocol for a fixed budget; if it fails - e.g. because faulty
  advice pointed nowhere - switch every player to a fallback protocol.
  The robustness repair for Section 3.2's deterministic protocols: with
  failure probability ``f`` and fallback cost ``C``, the expected cost is
  ``(1-f) * fast + f * (budget + C)``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..core.feedback import Observation
from ..core.protocol import (
    BatchSchedule,
    PlayerBatchSessions,
    PlayerProtocol,
    PlayerSession,
    ScheduleExhausted,
    UniformProtocol,
    UniformSession,
)

__all__ = ["RestartProtocol", "FallbackPlayerProtocol"]


class _RestartSession(UniformSession):
    def __init__(self, factory: Callable[[], UniformSession]) -> None:
        self._factory = factory
        self._inner = factory()
        self.attempts = 1

    def next_probability(self) -> float:
        try:
            return self._inner.next_probability()
        except ScheduleExhausted:
            self._inner = self._factory()
            self.attempts += 1
            return self._inner.next_probability()

    def observe(self, observation: Observation) -> None:
        self._inner.observe(observation)


class RestartProtocol(UniformProtocol):
    """Re-run a one-shot uniform protocol until the engine stops it.

    Wraps either a protocol instance (sessions restart from the same
    protocol) or a zero-argument factory (each attempt may rebuild the
    protocol, e.g. with fresh randomness).
    """

    def __init__(
        self,
        inner: UniformProtocol | Callable[[], UniformProtocol],
        *,
        name: str | None = None,
    ) -> None:
        if isinstance(inner, UniformProtocol):
            self._factory: Callable[[], UniformProtocol] = lambda: inner
            self._shared_inner: UniformProtocol | None = inner
            # Restarted sessions are only as deterministic as the inner
            # protocol's own sessions.
            self.deterministic_sessions = inner.deterministic_sessions
            base = inner
        else:
            self._factory = inner
            # Each attempt may rebuild the protocol with fresh randomness,
            # so restarted sessions are not deterministic functions of the
            # observation history: keep such wrappers on the scalar path.
            self._shared_inner = None
            self.deterministic_sessions = False
            base = inner()
        self.requires_collision_detection = base.requires_collision_detection
        self.name = name or f"restart({base.name})"

    def session(self) -> _RestartSession:
        return _RestartSession(lambda: self._factory().session())

    def batch_schedule(self) -> BatchSchedule | None:
        """Restarting a shared oblivious one-shot is a cycling schedule."""
        if self._shared_inner is None:
            return None
        inner_spec = self._shared_inner.batch_schedule()
        if inner_spec is None:
            return None
        return BatchSchedule(inner_spec.probabilities, True)

    def history_signature(self) -> tuple | None:
        """Identified by the shared inner protocol's own signature.

        Restarting is a deterministic transformation of the inner
        session stream, so a restart around a signed deterministic inner
        (e.g. a one-shot CD search) is itself trie-shareable; factory
        restarts (fresh randomness per attempt) inherit ``None``.
        """
        if self._shared_inner is None or not self.deterministic_sessions:
            return None
        inner_signature = self._shared_inner.history_signature()
        if inner_signature is None:
            return None
        return ("restart", inner_signature)


class _FallbackSession(PlayerSession):
    def __init__(
        self,
        primary: PlayerSession,
        make_fallback: Callable[[], PlayerSession],
        budget_rounds: int,
    ) -> None:
        self._primary: PlayerSession | None = primary
        self._make_fallback = make_fallback
        self._fallback: PlayerSession | None = None
        self._budget = budget_rounds
        self._round = 0

    def decide(self) -> bool:
        self._round += 1
        if self._fallback is None and self._round > self._budget:
            self._fallback = self._make_fallback()
        if self._fallback is not None:
            return self._fallback.decide()
        assert self._primary is not None
        try:
            return self._primary.decide()
        except ScheduleExhausted:
            # Primary gave up early (e.g. faulty advice): switch now.
            self._primary = None
            self._fallback = self._make_fallback()
            return self._fallback.decide()

    def observe(self, observation: Observation, *, transmitted: bool) -> None:
        if self._fallback is not None:
            self._fallback.observe(observation, transmitted=transmitted)
        elif self._primary is not None:
            self._primary.observe(observation, transmitted=transmitted)


class _FallbackBatchSessions(PlayerBatchSessions):
    """Array-state fallback: per-trial primary/fallback phase tracking.

    The batch counterpart of :class:`_FallbackSession`: each round the
    live rows split between the primary's batch sessions and the
    fallback's.  The round counter is global (rounds are synchronous, as
    in the scalar wrapper), so the budget switch hits every live trial
    at once; early switches - the primary's batch sessions reporting
    exhaustion, e.g. faulty advice pointing nowhere - flip individual
    rows, which then get their fallback decision *in the same round*,
    exactly like the scalar session's ``ScheduleExhausted`` catch.

    The scalar wrapper creates each trial's fallback session fresh *at
    its switch round*, so a trial's fallback schedule always starts from
    its own round 1.  Rows may switch at different rounds (a custom
    primary may exhaust rows unevenly), and batch-session state such as
    the scan's global round counter cannot represent per-row offsets -
    so rows are grouped into **cohorts** by switch round, one fallback
    batch-sessions object per cohort, created fresh when its rows
    switch.  In-repo primaries exhaust all rows together, giving at most
    two cohorts (early exhaustion + budget); the per-cohort split is
    what keeps the batch/scalar equivalence exact for any primary.
    """

    def __init__(
        self,
        primary: PlayerBatchSessions,
        make_fallback: Callable[[], PlayerBatchSessions],
        budget_rounds: int,
        trials: int,
        players: int,
    ) -> None:
        self._primary = primary
        self._make_fallback = make_fallback
        self._cohorts: list[PlayerBatchSessions] = []
        self._cohort_of = np.full(trials, -1, dtype=np.int64)  # -1: primary
        self._budget = budget_rounds
        self._players = players
        self._round = 0

    def _switch(self, rows: np.ndarray) -> None:
        """Move ``rows`` onto a fresh fallback cohort, created this round."""
        self._cohorts.append(self._make_fallback())
        self._cohort_of[rows] = len(self._cohorts) - 1

    def decide(self, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        self._round += 1
        decisions = np.zeros((live.size, self._players), dtype=bool)
        exhausted = np.zeros(live.size, dtype=bool)
        on_primary = self._cohort_of[live] < 0
        if self._round > self._budget:
            if on_primary.any():
                self._switch(live[on_primary])
        elif on_primary.any():
            primary_rows = live[on_primary]
            primary_decisions, primary_exhausted = self._primary.decide(
                primary_rows
            )
            decisions[on_primary] = primary_decisions
            if primary_exhausted.any():
                # Primary gave up early (e.g. faulty advice): switch now;
                # the fallback decides for these rows this same round.
                self._switch(primary_rows[primary_exhausted])
        for cohort, sessions in enumerate(self._cohorts):
            member = self._cohort_of[live] == cohort
            if not member.any():
                continue
            cohort_decisions, cohort_exhausted = sessions.decide(live[member])
            decisions[member] = cohort_decisions
            exhausted[member] = cohort_exhausted
        return decisions, exhausted

    def observe(
        self, live: np.ndarray, observations: np.ndarray, decisions: np.ndarray
    ) -> None:
        on_primary = self._cohort_of[live] < 0
        if on_primary.any():
            self._primary.observe(
                live[on_primary],
                observations[on_primary],
                decisions[on_primary],
            )
        for cohort, sessions in enumerate(self._cohorts):
            member = self._cohort_of[live] == cohort
            if member.any():
                sessions.observe(
                    live[member], observations[member], decisions[member]
                )


class FallbackPlayerProtocol(PlayerProtocol):
    """Primary player protocol with a budgeted switch to a fallback.

    All players share the same round counter (rounds are synchronous), so
    the switch happens simultaneously everywhere - no player is left
    running the primary while others fall back.

    Parameters
    ----------
    primary:
        The protocol to try first (typically an advice protocol).
    fallback:
        The protocol to switch to (typically decay or BEB); its
        ``advice_bits`` must be 0 - the fallback must not trust advice.
    budget_rounds:
        Rounds granted to the primary before the switch (typically its
        worst-case bound, so correct advice never triggers the fallback).
    """

    def __init__(
        self,
        primary: PlayerProtocol,
        fallback: PlayerProtocol,
        budget_rounds: int,
    ) -> None:
        if budget_rounds < 1:
            raise ValueError(f"budget must be >= 1, got {budget_rounds}")
        if fallback.advice_bits != 0:
            raise ValueError("fallback protocols must not require advice")
        self.primary = primary
        self.fallback = fallback
        self.budget_rounds = budget_rounds
        self.advice_bits = primary.advice_bits
        self.requires_collision_detection = (
            primary.requires_collision_detection
            or fallback.requires_collision_detection
        )
        self.name = f"{primary.name}->{fallback.name}@{budget_rounds}"

    def session(
        self,
        player_id: int,
        n: int,
        advice: str,
        rng: np.random.Generator | None = None,
    ) -> _FallbackSession:
        return _FallbackSession(
            self.primary.session(player_id, n, advice, rng=rng),
            lambda: self.fallback.session(player_id, n, "", rng=rng),
            self.budget_rounds,
        )

    def supports_batch_sessions(self) -> bool:
        """Batchable exactly when both halves are.

        The wrapper itself adds only per-trial phase bookkeeping, so the
        combinator vectorizes whenever the primary's and the fallback's
        own batch sessions exist - e.g. deterministic scan falling back to
        a per-player decay view, the ADVICE-ROBUST configuration.
        """
        return (
            self.primary.supports_batch_sessions()
            and self.fallback.supports_batch_sessions()
        )

    def supports_fused_sessions(self) -> bool:
        """Fusable only when both halves are randomness-free."""
        return (
            self.primary.supports_fused_sessions()
            and self.fallback.supports_fused_sessions()
        )

    def batch_sessions(
        self,
        player_ids: np.ndarray,
        n: int,
        advice: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> _FallbackBatchSessions | None:
        if not self.supports_batch_sessions():
            return None
        primary = self.primary.batch_sessions(player_ids, n, advice, rng=rng)
        assert primary is not None  # guaranteed by supports_batch_sessions
        trials = player_ids.shape[0]
        # The scalar wrapper hands the fallback an empty advice string
        # (it must not trust advice), which reads 0; mirror that per
        # trial.  Creation is deferred to the first switch, like the
        # scalar lazy factory - batch-session constructors consume no
        # randomness, so laziness is a convenience, not a correctness
        # requirement.
        return _FallbackBatchSessions(
            primary,
            lambda: self.fallback.batch_sessions(
                player_ids, n, np.zeros(trials, dtype=np.int64), rng=rng
            ),
            self.budget_rounds,
            trials,
            player_ids.shape[1],
        )
