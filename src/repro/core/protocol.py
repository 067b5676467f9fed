"""Protocol interfaces: how algorithms plug into the channel simulator.

Two families of protocols appear in the paper, and each gets an interface:

* **Uniform protocols** (Section 2.1): every participant uses the *same*
  transmission probability each round.  Without CD this is a fixed schedule
  ``p_1, p_2, ...``; with CD the probability may depend on the shared
  collision history.  Because behaviour is identity-oblivious, a uniform
  execution is fully described by the per-round probability, and the number
  of transmitters is exactly ``Binomial(k, p)`` - the simulator exploits
  this for an exact, fast simulation path.

* **Player protocols** (Section 3): deterministic or randomized algorithms
  where behaviour may depend on the player's identity and on advice bits.
  These require the full per-player simulation path.

Protocols are *factories* of per-execution sessions so a single protocol
object can be reused across thousands of Monte Carlo trials without state
leakage.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .feedback import Observation

if TYPE_CHECKING:  # pragma: no cover - import only for type checkers
    import numpy as np

__all__ = [
    "BatchSchedule",
    "UniformSession",
    "UniformProtocol",
    "PlayerSession",
    "PlayerBatchSessions",
    "PlayerProtocol",
    "ProtocolError",
    "ScheduleExhausted",
    "OBS_QUIET",
    "OBS_SILENCE",
    "OBS_COLLISION",
]

#: Integer observation codes used on the batch player path.  The scalar
#: engine hands each session an :class:`~repro.core.feedback.Observation`
#: enum member; the batch engine advances thousands of trials per call and
#: passes one int8 code per live trial instead, so sessions can branch with
#: vectorized compares rather than per-trial enum dispatch.  ``SUCCESS``
#: has no code - a successful trial retires and is never observed.
OBS_QUIET = 0
OBS_SILENCE = 1
OBS_COLLISION = 2


class ProtocolError(RuntimeError):
    """Raised when a protocol is driven outside its contract.

    Typical causes: asking for a probability after the schedule was
    exhausted, or running a CD-only protocol on a channel without collision
    detection.
    """


class ScheduleExhausted(ProtocolError):
    """A one-shot protocol has no further rounds.

    The simulator treats this as a clean (unsolved) termination rather
    than an error: one-shot algorithms such as the single pass of Section
    2.5 legitimately give up after their last scheduled round.
    """


@dataclass(frozen=True)
class BatchSchedule:
    """A uniform protocol's full probability schedule, known in advance.

    The vectorizable description of an *oblivious* (feedback-ignoring)
    uniform protocol: round ``r`` uses ``probabilities[(r - 1) % len]``
    when ``cycle`` is true, and the protocol exhausts after
    ``len(probabilities)`` rounds otherwise.  Returned by
    :meth:`UniformProtocol.batch_schedule` and consumed by the batch
    simulation engine (:mod:`repro.channel.batch`), which advances every
    Monte Carlo trial through the same precomputed schedule, comparing
    one uniform per trial and round with that round's trichotomy band
    edges - a whole pre-drawn block of rounds per step when no channel
    model is active.
    """

    probabilities: tuple[float, ...]
    cycle: bool

    def __post_init__(self) -> None:
        if len(self.probabilities) == 0:
            raise ValueError("batch schedule must contain at least one round")

    def horizon(self, max_rounds: int) -> int:
        """Rounds actually playable within ``max_rounds``."""
        if self.cycle:
            return max_rounds
        return min(max_rounds, len(self.probabilities))


class UniformSession(abc.ABC):
    """Per-execution state of a uniform protocol.

    The simulator alternates :meth:`next_probability` (before the round)
    and :meth:`observe` (after the round) until success or the round budget
    runs out.
    """

    def fork(self) -> "UniformSession":
        """An independent copy that continues from the same state.

        The batch engine forks a group's representative session when its
        trials' observation histories diverge (collision vs silence).  The
        default deep copy is always safe; sessions whose mutable state is
        all scalars/immutables override with a shallow copy to keep group
        splits cheap.
        """
        import copy

        return copy.deepcopy(self)

    @abc.abstractmethod
    def next_probability(self) -> float:
        """Transmission probability for the upcoming round (in ``[0, 1]``).

        Raises :class:`ProtocolError` when the protocol has no further
        rounds scheduled (one-shot protocols may exhaust; cycling protocols
        never do).
        """

    @abc.abstractmethod
    def observe(self, observation: Observation) -> None:
        """Receive the channel observation of the round just played.

        No-CD uniform algorithms are oblivious and typically ignore this;
        CD algorithms extend their collision history.  Never called with
        ``Observation.SUCCESS`` - success ends the execution.
        """


class UniformProtocol(abc.ABC):
    """Factory of :class:`UniformSession` executions.

    Attributes
    ----------
    name:
        Human-readable protocol name for reports.
    requires_collision_detection:
        Whether sessions branch on collision-vs-silence observations.  The
        simulator refuses to run such a protocol on a no-CD channel rather
        than silently feeding it degraded observations.
    deterministic_sessions:
        Whether every session is a deterministic function of its
        observation sequence.  True for all of the paper's uniform
        algorithms (``session()`` takes no randomness: no-CD schedules are
        fixed in advance, CD policies are functions of the shared collision
        history - Section 2.1), which is what lets the batch engine advance
        many trials through one representative session per distinct
        history.  Wrappers that inject per-session randomness must set this
        to ``False`` to keep the scalar path authoritative.
    """

    name: str = "uniform-protocol"
    requires_collision_detection: bool = False
    deterministic_sessions: bool = True

    @abc.abstractmethod
    def session(self) -> UniformSession:
        """Start a fresh execution."""

    def batch_schedule(self) -> BatchSchedule | None:
        """The full probability schedule, when it is known in advance.

        Oblivious protocols (the no-CD family of Section 2.1) override
        this to return a :class:`BatchSchedule`, unlocking the batch
        engine's fastest path: the per-round probability is an array
        lookup, with no session objects at all.  The default ``None``
        means the probability depends on feedback; the batch engine then
        falls back to history-indexed sessions (CD protocols) or the
        scalar reference loop.
        """
        return None

    def history_signature(self) -> tuple | None:
        """Hashable identity of the session *behaviour*, or ``None``.

        The memo hook of the array-based history engine
        (:func:`repro.channel.batch.run_history_stacked`): a uniform
        protocol with deterministic sessions is a function from
        observation histories to probabilities (Section 2.1), so the
        engine memoizes that function in a history trie - one
        ``next_probability()`` call and one session fork per *distinct
        history ever seen*.  Two protocols returning equal non-``None``
        signatures promise interchangeable sessions (identical
        probability / exhaustion responses to every observation
        sequence), letting a stacked run share a single trie across all
        scenario points with the same protocol spec.  The default
        ``None`` claims nothing: the point still runs on the history
        engine, it just keeps a private trie.  Protocols whose sessions
        are not deterministic must leave this ``None``.
        """
        return None

    def __repr__(self) -> str:
        detector = "CD" if self.requires_collision_detection else "no-CD"
        return f"<{type(self).__name__} {self.name!r} ({detector})>"


class PlayerSession(abc.ABC):
    """Per-execution, per-player state of an identity-aware protocol."""

    @abc.abstractmethod
    def decide(self) -> bool:
        """Whether this player transmits in the upcoming round."""

    @abc.abstractmethod
    def observe(self, observation: Observation, *, transmitted: bool) -> None:
        """Receive the round's observation; ``transmitted`` echoes the
        player's own action (a transmitter knows it transmitted)."""


class PlayerBatchSessions(abc.ABC):
    """Array-state sessions of *all* trials of a player-protocol batch.

    The per-player counterpart of the uniform batch hooks: one object
    holds the state of every ``(trial, player)`` pair as NumPy arrays and
    advances all live trials in lockstep.  The engine
    (:func:`repro.channel.batch_players.run_players_batch`) drives it one
    round per :meth:`decide` call, passing the indices of the still-live
    trials - or, on a faithful channel, a whole block of rounds per
    :meth:`block_counts` call when the sessions implement it.  Solved,
    exhausted and budget-censored trials are never passed again, so
    state updates (and randomness consumption) stop for a trial the
    moment it retires - mirroring the scalar loop, where a finished
    execution's sessions are simply dropped.
    """

    @abc.abstractmethod
    def decide(self, live: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
        """Transmission decisions for the live trials of the next round.

        ``live`` is a 1-d int array of trial indices.  Returns
        ``(decisions, exhausted)``: ``decisions`` is a boolean
        ``(len(live), players)`` array (padded player slots must be
        ``False``), ``exhausted`` a boolean ``(len(live),)`` array marking
        trials whose schedule is spent - the batch analogue of a scalar
        session raising :class:`ScheduleExhausted`.  Decision values of
        exhausted rows are ignored.  Randomized protocols must draw only
        for the ``live`` rows (retired trials stop consuming randomness).
        """

    @abc.abstractmethod
    def observe(
        self,
        live: "np.ndarray",
        observations: "np.ndarray",
        decisions: "np.ndarray",
    ) -> None:
        """Deliver the round's observation codes to the surviving trials.

        ``observations`` holds one :data:`OBS_QUIET` / :data:`OBS_SILENCE`
        / :data:`OBS_COLLISION` code per entry of ``live``; ``decisions``
        echoes the rows of the preceding :meth:`decide` call for those
        trials (a transmitter knows it transmitted).  Never called for
        solved trials - success ends the execution, as in the scalar
        engine.
        """

    def block_counts(
        self, live: "np.ndarray", width: int
    ) -> "tuple[np.ndarray, int] | None":
        """Transmitter counts of the live trials for the next ``width`` rounds.

        The block hook of sessions whose decisions read neither feedback
        nor a generator (the candidate scan): their rounds can be settled
        together.  Returns ``(counts, playable)``: ``counts[i, c]`` is how
        many players of trial ``live[i]`` transmit in round ``c`` of the
        block, and ``playable`` is how many of the block's rounds are
        played before the schedule is spent - every live trial exhausts
        at the same round, so columns from ``playable`` on are zero.  A
        call that returns counts advances the sessions by ``width``
        rounds, and the engine calls neither :meth:`decide` nor
        :meth:`observe` for those rounds.  The default ``None`` has no
        side effect: the engine then steps round by round.
        """
        del live, width
        return None


class PlayerProtocol(abc.ABC):
    """Factory of per-player sessions for identity/advice-aware algorithms.

    Attributes mirror :class:`UniformProtocol`; in addition
    :attr:`advice_bits` declares the advice-length budget ``b`` the
    protocol expects (0 for none), letting harnesses verify the advice
    function honours the bound of Section 3.1.
    """

    name: str = "player-protocol"
    requires_collision_detection: bool = False
    advice_bits: int = 0

    @abc.abstractmethod
    def session(
        self,
        player_id: int,
        n: int,
        advice: str,
        rng: "np.random.Generator | None" = None,
    ) -> PlayerSession:
        """Start a fresh execution for the player with id ``player_id``.

        ``advice`` is the bit string every participant receives from the
        advice function (empty when ``advice_bits == 0``); all participants
        of one execution receive the *same* string (Section 3.1).  ``rng``
        is the simulation generator; randomized player protocols draw from
        it, deterministic ones ignore it.
        """

    def supports_batch_sessions(self) -> bool:
        """Whether :meth:`batch_sessions` returns an engine-ready object.

        The routing capability probe (no participant data needed): the
        Monte Carlo harness auto-selects the vectorized player engine for
        protocols returning ``True`` and keeps everything else on the
        scalar reference loop.  Must agree with :meth:`batch_sessions` -
        a protocol may only claim support when the hook never returns
        ``None``.
        """
        return False

    def supports_fused_sessions(self) -> bool:
        """Whether batch sessions are randomness-free and row-independent.

        The fused sweep executor stacks trials of *different scenario
        points* into one :meth:`batch_sessions` run.  That is bit-identical
        per point only when the sessions (a) never draw from the engine
        ``rng`` - each point's stream must be consumed exactly as a solo
        run would - and (b) keep per-trial state independent given the
        engine's lockstep round counter, so one point's rows never
        perturb another's.  The deterministic Section 3.2 protocols
        qualify and override this to ``True``; randomized sessions
        (backoff, per-player uniform views) must keep the default
        ``False`` - they stay vectorized *within* a point but their
        points cannot fuse.
        """
        return False

    def batch_sessions(
        self,
        player_ids: "np.ndarray",
        n: int,
        advice: "np.ndarray",
        rng: "np.random.Generator | None" = None,
    ) -> PlayerBatchSessions | None:
        """Array-state sessions for a whole batch of executions.

        ``player_ids`` is an int64 ``(trials, players)`` array of each
        trial's participant ids in ascending order, right-padded with
        ``-1`` where participant sets are smaller than the widest one;
        ``advice`` is an int64 array of one advice value per trial, its
        ``advice_bits``-bit string read in base 2 (all participants of a
        trial share it, Section 3.1), already checked against
        ``[0, 2**advice_bits)``.  The default ``None`` keeps the
        protocol on the scalar per-player loop - wrappers whose per-round
        behaviour cannot be expressed as lockstep array updates (e.g. the
        fallback combinator) simply never override it.
        """
        del player_ids, n, advice, rng
        return None

    def __repr__(self) -> str:
        detector = "CD" if self.requires_collision_detection else "no-CD"
        return (
            f"<{type(self).__name__} {self.name!r} ({detector}, "
            f"b={self.advice_bits})>"
        )
