"""Adversarial channel models: fault injection between truth and observation.

The faithful :class:`~repro.channel.channel.Channel` maps the round's
transmitter count straight to ground-truth feedback.  A
:class:`ChannelModel` sits between that ground truth and what the
execution engines deliver to the protocols, injecting faults drawn from
the adversarial contention-resolution literature:

* :class:`ObliviousJammer` - a budgeted adversary that fixes its jam
  schedule before the execution starts (round ``start``, then every
  ``period`` rounds, until ``budget`` jams are spent).  A jammed round is
  delivered as a collision whatever actually happened - including
  destroying a success.
* :class:`ReactiveJammer` - a budgeted adversary that listens: after
  ``quiet_streak`` consecutive *delivered* silent rounds it jams the next
  round (spending one unit of budget), modelling a jammer that waits for
  the protocol to thin out before striking.
* :class:`NoisyChannel` - unreliable feedback: each round, independently,
  silence is reported as a collision with probability
  ``silence_to_collision``, a collision as silence with probability
  ``collision_to_silence``, and a success is erased (delivered as
  silence; the execution does *not* halt) with probability
  ``success_erasure``.
* :class:`CrashModel` - a crash/restart fault: when a round has exactly
  one transmitter, that transmitter crashes with probability
  ``probability`` - its message is lost (the round is delivered as
  silence).  With ``rejoin_after = 0`` the player itself survives (a pure
  message-loss fault); with ``rejoin_after = d > 0`` it leaves the
  execution for ``d`` rounds and rejoins with a fresh session; with
  ``rejoin_after = None`` it never returns.
* :class:`AdaptiveAdversary` - the full-information adversary of the
  adversarial contention-resolution literature: its per-trial state
  observes the entire delivered-feedback history *and* the faithful
  outcome of the current round, and decides whether to spend one unit of
  a ``budget`` jamming the round, via a pluggable strategy from the
  :data:`ADAPTIVE_STRATEGIES` registry (``greedy`` success suppression,
  ``streak`` targeting, front-/back-loaded ``scheduler``).  All built-in
  strategies are deterministic functions of the history, so the model
  consumes no randomness and runs **bit-identically** on every engine.

Engine contract
---------------
Every model exposes two execution-side views:

* :meth:`ChannelModel.scalar_state` - a scalar :class:`FaultState` consumed by
  the reference loops in :mod:`repro.channel.simulator`; one state per
  execution, ``deliver()`` called once per round on the ground-truth
  feedback.
* :meth:`ChannelModel.batch_state` - a vectorized
  :class:`BatchFaultState` consumed by the lockstep engines; one state
  per batch, ``perturb()`` called once per round on the live trials'
  feedback-code array *after* the faithful trichotomy outcome was drawn,
  so the band-sampling contract of :mod:`repro.channel.batch` is
  untouched.  Models whose faults are random
  (:attr:`ChannelModel.needs_fault_draws`) receive one extra uniform per
  live trial per round, pre-drawn by the engine from the point's own
  generator; deterministic jammers receive ``None`` and consume no
  randomness at all.

Routing is driven by three capability properties, not model names.
Every model runs on the stacked uniform engines and the open engines
of a fixed population; beyond that:

* :attr:`ChannelModel.shrinks_population` - whether the live
  participant count can drop mid-trial (the rejoin-delay crash
  variants).  The uniform engines then compute per-trial band edges
  from :meth:`BatchFaultState.active_counts` instead of the static
  ``(point, k)`` tables.  The batch *player* engine cannot express
  such a model: it holds per-``(trial, player)`` session state and has
  no vectorized leave/rejoin-with-a-fresh-session transition, so these
  models route to the scalar per-player loop (the Monte Carlo router
  and the fused sweep executor honour this automatically), and the
  open engines refuse them.
* :attr:`ChannelModel.fusable` - whether the fused sweep executor may
  stack points carrying this model into one engine run.  Adaptive
  adversaries opt out: each point keeps its own adversary, solo, so the
  "one adversary per execution" reading of a stress curve stays
  unambiguous.

A model whose parameters make it a no-op (zero budget, all-zero flip
probabilities, zero crash probability) reports :meth:`ChannelModel.is_null`;
:attr:`Channel.active_model <repro.channel.channel.Channel.active_model>`
reduces such models to ``None`` so zero-fault runs are bit-identical to
faithful ones on every engine.
"""

from __future__ import annotations

import abc
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from ..core.feedback import FB_COLLISION, FB_SILENCE, FB_SUCCESS, Feedback
from ..core.named import Params, Registry

__all__ = [
    "FB_SILENCE",
    "FB_SUCCESS",
    "FB_COLLISION",
    "FaultState",
    "BatchFaultState",
    "ChannelModel",
    "ObliviousJammer",
    "ReactiveJammer",
    "NoisyChannel",
    "CrashModel",
    "AdaptiveAdversary",
    "AdaptiveStrategy",
    "ADAPTIVE_STRATEGIES",
    "register_adaptive_strategy",
    "CHANNEL_MODELS",
    "channel_model_from_dict",
]

_FEEDBACK_OF_CODE = {
    FB_SILENCE: Feedback.SILENCE,
    FB_SUCCESS: Feedback.SUCCESS,
    FB_COLLISION: Feedback.COLLISION,
}
_CODE_OF_FEEDBACK = {feedback: code for code, feedback in _FEEDBACK_OF_CODE.items()}


class FaultState:
    """Scalar per-execution fault state (the reference-loop side).

    The scalar engines call :meth:`active_count` before each round's
    binomial draw (only the crash model shrinks it) and :meth:`deliver`
    on each round's ground-truth feedback; :meth:`take_crash` reports -
    and clears - a "the successful transmitter just crashed" event so the
    player loop can suspend the right session.
    """

    def active_count(self, k: int, round_index: int) -> int:
        """Live participant count for this round (crash faults shrink it)."""
        return k

    def take_crash(self) -> bool:
        """Whether the last :meth:`deliver` crashed the transmitter."""
        return False

    def deliver(
        self, round_index: int, feedback: Feedback, rng: np.random.Generator
    ) -> Feedback:
        """The feedback actually delivered to the protocol this round."""
        raise NotImplementedError


class BatchFaultState:
    """Vectorized fault state over the live trials of one batch.

    State arrays stay aligned with the engine's flat live-trial rows:
    the engine calls :meth:`filter` with the same keep-mask it applies to
    its own per-trial arrays whenever trials retire, and :meth:`perturb`
    once per round with the live trials' faithful feedback codes (which
    it may mutate in place and must return).  Models that shrink the
    live participant count (:attr:`ChannelModel.shrinks_population`)
    additionally answer :meth:`active_counts` once per round, *before*
    the round's outcome is drawn - the vectorized twin of
    :meth:`FaultState.active_count`.
    """

    def perturb(
        self,
        round_index: int,
        codes: np.ndarray,
        fault_draws: np.ndarray | None,
    ) -> np.ndarray:
        raise NotImplementedError

    def active_counts(self, ks: np.ndarray, round_index: int) -> np.ndarray:
        """Per-trial live participant counts for this round.

        The default returns ``ks`` untouched; crash states with a rejoin
        delay subtract their per-trial dead counts (re-activating players
        whose delay just elapsed).  Called exactly once per round, in
        round order, while any trial is live - the rejoin bookkeeping
        relies on never skipping a round.
        """
        return ks

    def filter(self, keep: np.ndarray) -> None:  # stateless models: no-op
        return None


class ChannelModel(abc.ABC):
    """A fault-injecting layer between ground truth and delivery.

    Concrete models are frozen dataclasses (hashable, comparable - they
    ride inside the frozen :class:`~repro.channel.channel.Channel`), and
    serialize to ``{"name": ..., "params": {...}}`` mappings, ``params``
    being the fields in order, that :func:`channel_model_from_dict`
    inverts exactly.
    """

    name: ClassVar[str]

    @abc.abstractmethod
    def is_null(self) -> bool:
        """Whether these parameters make the model a provable no-op."""

    @property
    def shrinks_population(self) -> bool:
        """Whether the live participant count can drop mid-trial.

        When True the uniform batch engines bypass their static
        ``(point, k)`` band tables and compute per-trial band edges from
        :meth:`BatchFaultState.active_counts` each round, and player
        protocols keep the scalar per-player loop as their engine - the
        batch player engine has no vectorized
        leave/rejoin-with-a-fresh-session transition.
        """
        return False

    @property
    def fusable(self) -> bool:
        """Whether the fused executor may stack points under this model.

        Adaptive adversaries return False: each scenario point keeps its
        own adversary and runs solo, so a stress curve's "one adversary
        per execution" reading stays unambiguous.
        """
        return True

    @property
    def needs_fault_draws(self) -> bool:
        """Whether the batch state consumes one uniform per live round."""
        return False

    @abc.abstractmethod
    def scalar_state(self) -> FaultState:
        """A fresh scalar per-execution state."""

    @abc.abstractmethod
    def batch_state(self, trials: int) -> BatchFaultState:
        """A fresh vectorized state over ``trials`` live rows."""

    def params(self) -> dict:
        """The model's fields in declaration order: its round-trip form.

        A frozen dataclass's instance dict holds its fields and nothing
        else, in field order, so this is a copy of it.
        """
        return dict(vars(self))

    def to_dict(self) -> dict:
        return {"name": self.name, "params": self.params()}

    def label(self) -> str:
        """Compact human-readable identity for metadata and tables."""
        inner = ",".join(f"{key}={value}" for key, value in self.params().items())
        return f"{self.name}({inner})"


def _check_count(value: object, what: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {value}")
    return value


def _check_probability(value: object, what: str) -> float:
    probability = Params.check(value, float, what)
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value!r}")
    return probability


# ----------------------------------------------------------------------
# Jamming adversaries
# ----------------------------------------------------------------------


class _ObliviousJamState(FaultState):
    def __init__(self, model: "ObliviousJammer") -> None:
        self._model = model
        self.jams_used = 0

    def deliver(
        self, round_index: int, feedback: Feedback, rng: np.random.Generator
    ) -> Feedback:
        if self._model.jams_round(round_index):
            self.jams_used += 1
            return Feedback.COLLISION
        return feedback


class _ObliviousJamBatchState(BatchFaultState):
    def __init__(self, model: "ObliviousJammer") -> None:
        self._model = model
        self.jams_used = 0

    def perturb(
        self,
        round_index: int,
        codes: np.ndarray,
        fault_draws: np.ndarray | None,
    ) -> np.ndarray:
        if self._model.jams_round(round_index):
            self.jams_used += 1
            codes[:] = FB_COLLISION
        return codes


@dataclass(frozen=True)
class ObliviousJammer(ChannelModel):
    """A budgeted jammer whose round schedule is fixed in advance.

    Jams rounds ``start, start + period, start + 2*period, ...`` until
    ``budget`` jams are spent; a jammed round is delivered as a collision
    regardless of the faithful outcome.  Deterministic: consumes no
    randomness on any engine, so it stacks and fuses freely.
    """

    name: ClassVar[str] = "jam-oblivious"

    budget: int
    start: int = 1
    period: int = 1

    def __post_init__(self) -> None:
        _check_count(self.budget, "jam budget", 0)
        _check_count(self.start, "jam start round", 1)
        _check_count(self.period, "jam period", 1)

    def jams_round(self, round_index: int) -> bool:
        """Whether the fixed schedule jams this (1-based) round."""
        if self.budget == 0 or round_index < self.start:
            return False
        offset = round_index - self.start
        return offset % self.period == 0 and offset // self.period < self.budget

    def is_null(self) -> bool:
        return self.budget == 0

    def scalar_state(self) -> FaultState:
        return _ObliviousJamState(self)

    def batch_state(self, trials: int) -> BatchFaultState:
        return _ObliviousJamBatchState(self)


class _ReactiveJamState(FaultState):
    def __init__(self, model: "ReactiveJammer") -> None:
        self._need = model.quiet_streak
        self.remaining = model.budget
        self.streak = 0
        self.jams_used = 0

    def deliver(
        self, round_index: int, feedback: Feedback, rng: np.random.Generator
    ) -> Feedback:
        if self.remaining > 0 and self.streak >= self._need:
            self.remaining -= 1
            self.jams_used += 1
            delivered = Feedback.COLLISION
        else:
            delivered = feedback
        self.streak = self.streak + 1 if delivered is Feedback.SILENCE else 0
        return delivered


class _ReactiveJamBatchState(BatchFaultState):
    """Per-trial streak/budget arrays - the stackable reactive jammer."""

    def __init__(self, model: "ReactiveJammer", trials: int) -> None:
        self._need = model.quiet_streak
        self.remaining = np.full(trials, model.budget, dtype=np.int64)
        self.streak = np.zeros(trials, dtype=np.int64)

    def perturb(
        self,
        round_index: int,
        codes: np.ndarray,
        fault_draws: np.ndarray | None,
    ) -> np.ndarray:
        jam = (self.remaining > 0) & (self.streak >= self._need)
        if jam.any():
            codes[jam] = FB_COLLISION
            self.remaining[jam] -= 1
        silent = codes == FB_SILENCE
        self.streak[silent] += 1
        self.streak[~silent] = 0
        return codes

    def filter(self, keep: np.ndarray) -> None:
        self.remaining = self.remaining[keep]
        self.streak = self.streak[keep]


@dataclass(frozen=True)
class ReactiveJammer(ChannelModel):
    """A budgeted jammer that strikes after a quiet streak.

    Listens to the *delivered* feedback of its own trial: once
    ``quiet_streak`` consecutive rounds were delivered silent, the next
    round is jammed (one budget unit), delivered as a collision, and the
    streak resets.  Deterministic given the trial's delivered sequence,
    so it still stacks (per-trial state arrays) and fuses; it just cannot
    share jam schedules across trials the way the oblivious variant does.
    """

    name: ClassVar[str] = "jam-reactive"

    budget: int
    quiet_streak: int = 1

    def __post_init__(self) -> None:
        _check_count(self.budget, "jam budget", 0)
        _check_count(self.quiet_streak, "quiet streak", 1)

    def is_null(self) -> bool:
        return self.budget == 0

    def scalar_state(self) -> FaultState:
        return _ReactiveJamState(self)

    def batch_state(self, trials: int) -> BatchFaultState:
        return _ReactiveJamBatchState(self, trials)


# ----------------------------------------------------------------------
# Adaptive (full-information) adversaries
# ----------------------------------------------------------------------


class AdaptiveStrategy(abc.ABC):
    """A pluggable jam policy of the :class:`AdaptiveAdversary`.

    Strategies are stateless singletons; all per-trial state lives in the
    array mapping returned by :meth:`init_arrays`, which the adversary's
    batch state keeps aligned with the engine's live rows (every array is
    re-indexed by ``filter``'s keep-mask).  Each round the adversary

    1. asks :meth:`jam_candidates` which live trials the strategy *wants*
       jammed, given the faithful (pre-perturbation) feedback codes - the
       full-information view: the adversary sees what the round would
       deliver before deciding;
    2. intersects that with affordability (``remaining > 0``) and
       usefulness (jamming an already-collided round is a no-op and is
       never paid for), jams, and debits the budget;
    3. hands the *delivered* codes to :meth:`observe` so history-driven
       strategies (streak targeting) track exactly what the protocol saw.

    All built-in strategies are deterministic, which is what makes the
    adversary bit-identical across the scalar and vectorized engines;
    randomized strategies would need :attr:`ChannelModel.needs_fault_draws`
    plumbing of their own.
    """

    name: ClassVar[str]

    def init_arrays(self, model: "AdaptiveAdversary", trials: int) -> dict:
        """Fresh per-trial strategy arrays (name -> 1-d ndarray)."""
        return {}

    @abc.abstractmethod
    def jam_candidates(
        self,
        model: "AdaptiveAdversary",
        arrays: dict,
        round_index: int,
        codes: np.ndarray,
    ) -> np.ndarray:
        """Boolean per-trial mask of rounds the strategy wants jammed.

        ``codes`` is the faithful feedback of the live trials; the mask
        may read *and update* the strategy arrays (e.g. arming on the
        first faithful success) but must not mutate ``codes``.
        """

    def observe(
        self,
        model: "AdaptiveAdversary",
        arrays: dict,
        round_index: int,
        delivered: np.ndarray,
    ) -> None:
        """Update strategy arrays from the round's *delivered* codes."""
        return None


class _GreedyStrategy(AdaptiveStrategy):
    """Jam every faithful success while budget lasts.

    The canonical success-suppression adversary: with budget ``b`` it
    destroys exactly the first ``b`` would-be successes, so a protocol
    needs ``b + 1`` single-transmitter rounds to finish - the adaptive
    analogue of the oblivious jammer's ``budget + 1`` floor, but without
    ever wasting a unit on a silent or collided round.
    """

    name: ClassVar[str] = "greedy"

    def jam_candidates(
        self,
        model: "AdaptiveAdversary",
        arrays: dict,
        round_index: int,
        codes: np.ndarray,
    ) -> np.ndarray:
        return codes == FB_SUCCESS


class _StreakStrategy(AdaptiveStrategy):
    """Spend budget only on successes that look *imminent*.

    Tracks the delivered-silence streak per trial (the same signal the
    reactive jammer uses) and jams a faithful success only once the
    protocol has thinned out - ``patience`` or more consecutive delivered
    silent rounds, the regime where the next success would likely end
    the execution.  Early, lucky successes are let through; the budget
    is hoarded for the endgame.
    """

    name: ClassVar[str] = "streak"

    def init_arrays(self, model: "AdaptiveAdversary", trials: int) -> dict:
        return {"streak": np.zeros(trials, dtype=np.int64)}

    def jam_candidates(
        self,
        model: "AdaptiveAdversary",
        arrays: dict,
        round_index: int,
        codes: np.ndarray,
    ) -> np.ndarray:
        return (codes == FB_SUCCESS) & (arrays["streak"] >= model.patience)

    def observe(
        self,
        model: "AdaptiveAdversary",
        arrays: dict,
        round_index: int,
        delivered: np.ndarray,
    ) -> None:
        streak = arrays["streak"]
        silent = delivered == FB_SILENCE
        streak[silent] += 1
        streak[~silent] = 0


class _SchedulerStrategy(AdaptiveStrategy):
    """Front- or back-load the whole budget as one burst.

    ``mode="front"`` burns budget from round one, jamming every round
    that is not already a collision - a denial-of-service opening burst.
    ``mode="back"`` waits, letting the execution run untouched until the
    first faithful success appears, then arms and spends the remaining
    budget on every subsequent non-collision round - a burst timed to
    when the protocol has converged, the worst case for schedules whose
    success probability peaks once.
    """

    name: ClassVar[str] = "scheduler"

    def init_arrays(self, model: "AdaptiveAdversary", trials: int) -> dict:
        if model.mode == "front":
            return {}
        return {"armed": np.zeros(trials, dtype=bool)}

    def jam_candidates(
        self,
        model: "AdaptiveAdversary",
        arrays: dict,
        round_index: int,
        codes: np.ndarray,
    ) -> np.ndarray:
        if model.mode == "front":
            return np.ones(codes.shape, dtype=bool)
        armed = arrays["armed"]
        armed |= codes == FB_SUCCESS
        return armed.copy()


#: Strategy name -> singleton, the adaptive adversary's policy vocabulary.
ADAPTIVE_STRATEGIES = Registry("adaptive strategy")


def register_adaptive_strategy(strategy: AdaptiveStrategy) -> AdaptiveStrategy:
    """Register a strategy under its ``name`` (open, like the registries
    of :mod:`repro.scenarios.registry`); returns it for chaining."""
    return ADAPTIVE_STRATEGIES.register(strategy.name, strategy)


register_adaptive_strategy(_GreedyStrategy())
register_adaptive_strategy(_StreakStrategy())
register_adaptive_strategy(_SchedulerStrategy())


class _AdaptiveBatchState(BatchFaultState):
    """Per-trial budget/strategy arrays of one adaptive adversary batch.

    The single authoritative implementation of the adversary's round
    step; the scalar :class:`_AdaptiveState` wraps a one-trial instance,
    so scalar/batch bit-identity holds by construction.  Budget
    accounting invariant (property-tested): ``remaining + spent ==
    budget`` per trial, preserved by :meth:`perturb` and :meth:`filter`.
    """

    def __init__(self, model: "AdaptiveAdversary", trials: int) -> None:
        self._model = model
        self._strategy = ADAPTIVE_STRATEGIES[model.strategy]
        self.remaining = np.full(trials, model.budget, dtype=np.int64)
        self.spent = np.zeros(trials, dtype=np.int64)
        self.arrays = self._strategy.init_arrays(model, trials)

    def perturb(
        self,
        round_index: int,
        codes: np.ndarray,
        fault_draws: np.ndarray | None,
    ) -> np.ndarray:
        jam = self._strategy.jam_candidates(
            self._model, self.arrays, round_index, codes
        )
        # Full information means no waste: never pay to jam a round that
        # is already a collision, never jam without budget.
        jam &= (self.remaining > 0) & (codes != FB_COLLISION)
        if jam.any():
            codes[jam] = FB_COLLISION
            self.remaining[jam] -= 1
            self.spent[jam] += 1
        self._strategy.observe(self._model, self.arrays, round_index, codes)
        return codes

    def filter(self, keep: np.ndarray) -> None:
        self.remaining = self.remaining[keep]
        self.spent = self.spent[keep]
        for key, array in self.arrays.items():
            self.arrays[key] = array[keep]


class _AdaptiveState(FaultState):
    """Scalar view: a one-trial batch state plus the delivered history."""

    def __init__(self, model: "AdaptiveAdversary") -> None:
        self._batch = _AdaptiveBatchState(model, 1)
        #: Full delivered-feedback history, the adversary's information
        #: set (the strategy arrays are its sufficient statistic).
        self.history: list[Feedback] = []

    @property
    def remaining(self) -> int:
        return int(self._batch.remaining[0])

    @property
    def jams_used(self) -> int:
        return int(self._batch.spent[0])

    def deliver(
        self, round_index: int, feedback: Feedback, rng: np.random.Generator
    ) -> Feedback:
        codes = np.array([_CODE_OF_FEEDBACK[feedback]], dtype=np.int64)
        delivered = self._batch.perturb(round_index, codes, None)
        out = _FEEDBACK_OF_CODE[int(delivered[0])]
        self.history.append(out)
        return out


@dataclass(frozen=True)
class AdaptiveAdversary(ChannelModel):
    """A budgeted full-information jammer with a pluggable strategy.

    The strongest adversary the channel model admits (the adaptive
    adversary of the contention-resolution robustness literature): its
    per-trial state sees the entire delivered-feedback history *and* the
    faithful outcome of the current round before deciding whether to
    spend one of ``budget`` jams turning the round into a collision.
    ``strategy`` picks the policy from :data:`ADAPTIVE_STRATEGIES`:

    * ``"greedy"`` - jam every faithful success; the tightest
      success-suppression floor (``budget + 1`` successes needed).
    * ``"streak"`` - jam a faithful success only after ``patience``
      consecutive delivered-silent rounds, hoarding budget for successes
      that look imminent.
    * ``"scheduler"`` - one burst: ``mode="front"`` from round one,
      ``mode="back"`` armed by the first faithful success.

    ``patience`` and ``mode`` are read only by their strategies and kept
    at their defaults otherwise.  All built-in strategies are
    deterministic, so the model consumes no engine randomness and runs
    bit-identically on the scalar, stacked-uniform, batch-player and
    open-system engines; it is deliberately **not** fusable - each
    scenario point keeps its own adversary and runs solo.
    """

    name: ClassVar[str] = "jam-adaptive"

    budget: int
    strategy: str = "greedy"
    patience: int = 1
    mode: str = "back"

    def __post_init__(self) -> None:
        _check_count(self.budget, "jam budget", 0)
        ADAPTIVE_STRATEGIES[self.strategy]  # refuses an unknown strategy
        _check_count(self.patience, "streak patience", 1)
        if self.mode not in ("front", "back"):
            raise ValueError(
                f"scheduler mode must be 'front' or 'back', got {self.mode!r}"
            )

    @property
    def fusable(self) -> bool:
        return False

    def is_null(self) -> bool:
        return self.budget == 0

    def scalar_state(self) -> FaultState:
        return _AdaptiveState(self)

    def batch_state(self, trials: int) -> BatchFaultState:
        return _AdaptiveBatchState(self, trials)


# ----------------------------------------------------------------------
# Noisy feedback
# ----------------------------------------------------------------------


class _NoisyState(FaultState):
    def __init__(self, model: "NoisyChannel") -> None:
        self._threshold = {
            Feedback.SILENCE: model.silence_to_collision,
            Feedback.SUCCESS: model.success_erasure,
            Feedback.COLLISION: model.collision_to_silence,
        }
        self._flip_to = {
            Feedback.SILENCE: Feedback.COLLISION,
            Feedback.SUCCESS: Feedback.SILENCE,
            Feedback.COLLISION: Feedback.SILENCE,
        }

    def deliver(
        self, round_index: int, feedback: Feedback, rng: np.random.Generator
    ) -> Feedback:
        # One uniform per round regardless of the feedback, matching the
        # batch engines' one-fault-draw-per-live-trial-per-round stream.
        if rng.random() < self._threshold[feedback]:
            return self._flip_to[feedback]
        return feedback


class _NoisyBatchState(BatchFaultState):
    def __init__(self, model: "NoisyChannel") -> None:
        # Indexed by feedback code: flip threshold and flip target.
        self._threshold = np.array(
            [
                model.silence_to_collision,
                model.success_erasure,
                model.collision_to_silence,
            ]
        )
        self._flip_to = np.array(
            [FB_COLLISION, FB_SILENCE, FB_SILENCE], dtype=np.int64
        )

    def perturb(
        self,
        round_index: int,
        codes: np.ndarray,
        fault_draws: np.ndarray | None,
    ) -> np.ndarray:
        assert fault_draws is not None
        flip = fault_draws < self._threshold[codes]
        if flip.any():
            codes[flip] = self._flip_to[codes[flip]]
        return codes


@dataclass(frozen=True)
class NoisyChannel(ChannelModel):
    """Unreliable feedback: independent per-round flips and erasures.

    Each round, after the faithful outcome is drawn: silence is reported
    as a collision with probability ``silence_to_collision``, a collision
    as silence with probability ``collision_to_silence``, and a success
    is erased - delivered as silence, execution continues - with
    probability ``success_erasure``.  Consumes one uniform per live
    trial per round on every engine.
    """

    name: ClassVar[str] = "noise"

    silence_to_collision: float = 0.0
    collision_to_silence: float = 0.0
    success_erasure: float = 0.0

    def __post_init__(self) -> None:
        for field in fields(self):
            _check_probability(getattr(self, field.name), field.name)

    @property
    def needs_fault_draws(self) -> bool:
        return True

    def is_null(self) -> bool:
        return (
            self.silence_to_collision == 0.0
            and self.collision_to_silence == 0.0
            and self.success_erasure == 0.0
        )

    def scalar_state(self) -> FaultState:
        return _NoisyState(self)

    def batch_state(self, trials: int) -> BatchFaultState:
        return _NoisyBatchState(self)


# ----------------------------------------------------------------------
# Player crashes
# ----------------------------------------------------------------------


class _CrashState(FaultState):
    def __init__(self, model: "CrashModel") -> None:
        self._q = model.probability
        self._rejoin_after = model.rejoin_after
        self.dead = 0
        self._rejoins: deque[int] = deque()  # absolute re-activation rounds
        self._crashed_now = False

    def active_count(self, k: int, round_index: int) -> int:
        while self._rejoins and self._rejoins[0] <= round_index:
            self._rejoins.popleft()
            self.dead -= 1
        return max(k - self.dead, 0)

    def take_crash(self) -> bool:
        crashed, self._crashed_now = self._crashed_now, False
        return crashed

    def deliver(
        self, round_index: int, feedback: Feedback, rng: np.random.Generator
    ) -> Feedback:
        if feedback is not Feedback.SUCCESS:
            return feedback
        if rng.random() >= self._q:
            return feedback
        if self._rejoin_after != 0:
            # rejoin_after = 0 is pure message loss: the player survives.
            self._crashed_now = True
            self.dead += 1
            if self._rejoin_after is not None:
                self._rejoins.append(round_index + self._rejoin_after + 1)
        return Feedback.SILENCE


class _CrashBatchState(BatchFaultState):
    """The ``rejoin_after = 0`` crash: exactly a success erasure."""

    def __init__(self, model: "CrashModel") -> None:
        self._q = model.probability

    def perturb(
        self,
        round_index: int,
        codes: np.ndarray,
        fault_draws: np.ndarray | None,
    ) -> np.ndarray:
        assert fault_draws is not None
        crash = (codes == FB_SUCCESS) & (fault_draws < self._q)
        if crash.any():
            codes[crash] = FB_SILENCE
        return codes


class _CrashRejoinBatchState(BatchFaultState):
    """The rejoin-delay crash on the uniform batch engines.

    Per-trial dead counts plus (for finite delays) a rejoin ring buffer:
    a crash at round ``r`` schedules its re-activation at round
    ``r + d + 1`` - exactly the scalar :class:`_CrashState` arithmetic -
    by writing slot ``(r + d + 1) % (d + 2)`` of the trial's ring.  The
    ring has ``d + 2`` slots, so a slot written at ``r`` is next read
    precisely at ``r + d + 1`` (and a later crash cannot reuse it before
    then); :meth:`active_counts`, called once per round before the
    round's draw, pops the due slot and shrinks nothing else.

    One fault uniform is consumed per live trial per round (the batch
    pre-draw stream), whereas the scalar loop draws only on successful
    rounds - so scalar/batch agreement is statistical, not bit-exact,
    with the scalar loop as the correctness oracle (the same contract as
    the randomized noise model).
    """

    def __init__(self, model: "CrashModel", trials: int) -> None:
        self._q = model.probability
        self._delay = model.rejoin_after  # None (never returns) or > 0
        self.dead = np.zeros(trials, dtype=np.int64)
        self._ring = (
            np.zeros((trials, self._delay + 2), dtype=np.int64)
            if self._delay is not None
            else None
        )

    def active_counts(self, ks: np.ndarray, round_index: int) -> np.ndarray:
        if self._ring is not None:
            slot = round_index % (self._delay + 2)
            due = self._ring[:, slot]
            if due.any():
                self.dead -= due
                self._ring[:, slot] = 0
        return np.maximum(ks - self.dead, 0)

    def perturb(
        self,
        round_index: int,
        codes: np.ndarray,
        fault_draws: np.ndarray | None,
    ) -> np.ndarray:
        assert fault_draws is not None
        crash = (codes == FB_SUCCESS) & (fault_draws < self._q)
        if crash.any():
            codes[crash] = FB_SILENCE
            self.dead[crash] += 1
            if self._ring is not None:
                slot = (round_index + self._delay + 1) % (self._delay + 2)
                self._ring[crash, slot] += 1
        return codes

    def filter(self, keep: np.ndarray) -> None:
        self.dead = self.dead[keep]
        if self._ring is not None:
            self._ring = self._ring[keep]


@dataclass(frozen=True)
class CrashModel(ChannelModel):
    """Crash the lone transmitter of a successful round with probability q.

    The crashed round is delivered as silence (the message is lost).
    ``rejoin_after`` controls what happens to the player itself:

    * ``0`` - the player survives; only the message was lost.  This is
      exactly a success erasure, so the population stays fixed.
    * ``d > 0`` - the player leaves the execution for ``d`` rounds and
      rejoins with a **fresh** session (a restart, not a resume).
    * ``None`` (default) - the player never returns.

    Non-zero rejoin delays change the live participant count mid-trial:
    those variants report :attr:`shrinks_population`.  The uniform batch
    engines express that through per-trial band edges from
    :meth:`BatchFaultState.active_counts`, with the scalar loop as the
    statistical oracle; the batch *player* engine cannot - it has no
    vectorized leave/rejoin-with-a-fresh-session transition - so player
    protocols route to the scalar per-player loop.
    """

    name: ClassVar[str] = "crash"

    probability: float
    rejoin_after: int | None = None

    def __post_init__(self) -> None:
        _check_probability(self.probability, "crash probability")
        if self.rejoin_after is not None:
            _check_count(self.rejoin_after, "rejoin delay", 0)

    @property
    def shrinks_population(self) -> bool:
        return self.rejoin_after != 0

    @property
    def needs_fault_draws(self) -> bool:
        return True

    def is_null(self) -> bool:
        return self.probability == 0.0

    def scalar_state(self) -> FaultState:
        return _CrashState(self)

    def batch_state(self, trials: int) -> BatchFaultState:
        if self.rejoin_after == 0:
            # Pure message loss: exactly a success erasure, stateless.
            return _CrashBatchState(self)
        return _CrashRejoinBatchState(self, trials)


# ----------------------------------------------------------------------
# Registry / serialization
# ----------------------------------------------------------------------

#: Model name -> constructor, the serializable channel-model vocabulary.
CHANNEL_MODELS = Registry(
    "channel model",
    {
        ObliviousJammer.name: ObliviousJammer,
        ReactiveJammer.name: ReactiveJammer,
        AdaptiveAdversary.name: AdaptiveAdversary,
        NoisyChannel.name: NoisyChannel,
        CrashModel.name: CrashModel,
    },
)


def channel_model_from_dict(data: Mapping) -> ChannelModel:
    """Build a model from its ``{"name": ..., "params": {...}}`` mapping.

    Raises :class:`ValueError` with an actionable message for unknown
    model names (listing the valid ones), unknown parameters, and
    out-of-range values; the scenario layer wraps these into
    :class:`~repro.scenarios.spec.ScenarioError` at spec-parse time so a
    malformed sweep fails before any point runs.
    """
    if not isinstance(data, Mapping):
        raise ValueError(
            f"channel model must be a mapping, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - {"name", "params"})
    if unknown:
        raise ValueError(
            f"unknown channel model field(s) {', '.join(map(repr, unknown))}; "
            "allowed: name, params"
        )
    name = data.get("name")
    constructor = CHANNEL_MODELS[name]
    params = data.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError(
            f"channel model params must be a mapping, got {type(params).__name__}"
        )
    allowed = [field.name for field in fields(constructor)]  # type: ignore[arg-type]
    bad = sorted(set(params) - set(allowed))
    if bad:
        raise ValueError(
            f"unknown parameter(s) {', '.join(map(repr, bad))} for channel "
            f"model {name!r}; allowed: {', '.join(allowed)}"
        )
    return constructor(**dict(params))
