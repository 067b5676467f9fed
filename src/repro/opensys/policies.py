"""Request-lifecycle policies: what a failed request does next.

PR 7's driver gave every failed request exactly one fate: vanish (a
capacity overflow became ``dropped``, a sojourn timeout became
``timed_out``).  This module makes that fate a policy decision, split
along the two axes the overload literature separates:

* **Admission policies** decide whether a request presenting itself this
  round (a fresh arrival or an orbit rejoin) is let into the service
  buffer at all.  ``capacity`` is PR 7's behaviour - the hard buffer
  limit is the only gate.  ``token-bucket`` meters admissions to a
  sustained rate with a burst allowance, and ``shed`` drops
  probabilistically as the buffer fills - the classic load-shedding
  lever that keeps the *admitted* population (and hence the contention
  level every epoch faces) bounded below the collapse region.

* **Retry policies** decide what a refused or timed-out request does.
  ``give-up`` is PR 7's behaviour (the request dies, counted).
  ``immediate`` rejoins next round - the retry-storm policy that turns
  transient overload into sustained overload.  ``backoff`` waits in the
  *orbit* (the retry queue) for a capped exponential delay with
  deterministic jitter before rejoining, and a finite ``budget`` of
  retries turns the (budget+1)-th failure into an ``abandoned`` death.

Both policy kinds are engine-neutral: they operate on the request
lifecycle around the channel simulation, so the vectorized
``open-schedule`` / ``open-history`` drivers and the ``open-scalar``
oracle execute them identically (and stay bit-identical per trial).

Determinism contract
--------------------
Policies that consume randomness (``shed``, ``backoff`` with jitter)
draw it from one extra pre-drawn uniform column per round of the
per-trial channel stream - the same absolute-block pre-draw discipline
as the band and winner draws, so stream shapes never depend on the
population.  A single round can fail several requests; the j-th retry
scheduled in a round derives its jitter uniform from the round's single
retry draw by a Weyl rotation (:func:`weyl_uniforms`), which is
deterministic, order-stable, and identical across engines.  Numeric
kernels (:func:`weyl_uniforms`, :meth:`OccupancySheddingPolicy.
shed_probability`, :meth:`RetryPolicy.delays`) are shared by the
vectorized engines and the scalar oracle - the oracle independently
reimplements the *lifecycle*, not the float microcode, so bit-identity
never hinges on libm coincidences.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Mapping

import numpy as np

from ..core.named import Params, Registry

__all__ = [
    "RetryPolicy",
    "GiveUpPolicy",
    "ImmediateRetryPolicy",
    "ExponentialBackoffPolicy",
    "AdmissionPolicy",
    "AdmissionState",
    "HardCapacityPolicy",
    "TokenBucketPolicy",
    "OccupancySheddingPolicy",
    "RETRY_POLICIES",
    "ADMISSION_POLICIES",
    "retry_policy_from_dict",
    "admission_policy_from_dict",
    "weyl_uniforms",
]

#: Conjugate golden ratio: the Weyl-sequence stride that spreads the
#: per-round retry uniform into per-request jitter uniforms.
_WEYL_STRIDE = 0.6180339887498949


def weyl_uniforms(u: np.ndarray | float, offsets: np.ndarray) -> np.ndarray:
    """Per-request jitter uniforms derived from one per-round draw.

    ``(u + j * phi) mod 1`` for the j-th retry scheduled this round -
    an equidistributed rotation of the single pre-drawn uniform, so
    multiple failures in one round get distinct, deterministic jitter
    without widening the stream.  Exact IEEE add/multiply/remainder on
    positive operands: identical in vectorized and scalar execution.
    """
    return np.remainder(
        np.asarray(u, dtype=np.float64)
        + offsets.astype(np.float64) * _WEYL_STRIDE,
        1.0,
    )


# ----------------------------------------------------------------------
# Retry policies
# ----------------------------------------------------------------------
class RetryPolicy(ABC):
    """What a failed request (refused admission, or timed out) does next.

    ``allows(retries)`` asks whether a request that has already been
    retried ``retries`` times may enter the orbit once more;
    :meth:`delays` maps the (1-based) retry number to the rounds spent
    in orbit before rejoining.  Policies hold no mutable state - the
    orbit itself lives in the driver - so one instance serves every
    trial and engine of a run.
    """

    name: str
    #: Whether the driver must pre-draw one retry uniform per round.
    needs_draws: bool = False
    #: Maximum retries per request (``None`` = unlimited).
    budget: int | None = None

    def allows(self, retries: int | np.ndarray) -> bool | np.ndarray:
        """May a request with ``retries`` prior retries retry again?"""
        if self.budget is None:
            if isinstance(retries, np.ndarray):
                return np.ones(retries.shape, dtype=bool)
            return True
        return retries < self.budget

    @abstractmethod
    def delays(
        self, retries: np.ndarray, jitter_u: np.ndarray | None
    ) -> np.ndarray:
        """Orbit rounds before the ``retries``-th retry rejoins (>= 1).

        ``retries`` is 1-based (the first retry is 1).  ``jitter_u``
        carries the per-request jitter uniforms when ``needs_draws``,
        else ``None``.  Returns int64, elementwise.
        """


class GiveUpPolicy(RetryPolicy):
    """PR 7's behaviour: a failed request dies immediately, counted."""

    budget = 0

    def __init__(self) -> None:
        self.name = "give-up"

    def delays(self, retries, jitter_u):  # pragma: no cover - unreachable
        raise AssertionError("give-up never schedules a retry")


class ImmediateRetryPolicy(RetryPolicy):
    """Rejoin next round - the retry-storm policy.

    With an unlimited budget (the default) a failed request presents
    itself again every round until admitted and served: under sustained
    overload the orbit grows without bound and the offered-plus-retried
    load stays pinned above capacity - the metastable regime the
    graceful-degradation suite demonstrates.
    """

    def __init__(self, *, budget: int | None = None) -> None:
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be >= 0 or None, got {budget}")
        self.budget = budget
        suffix = "" if budget is None else f"(budget={budget})"
        self.name = f"immediate{suffix}"

    def delays(self, retries, jitter_u):
        return np.ones(np.shape(retries), dtype=np.int64)


class ExponentialBackoffPolicy(RetryPolicy):
    """Capped exponential backoff with deterministic jitter.

    The ``retries``-th retry waits ``min(base * 2**(retries-1), cap)``
    rounds plus a jitter of ``floor(u * (jitter + 1))`` in
    ``[0, jitter]`` drawn from the per-trial channel stream.  The
    uncapped doubling is precomputed into an integer table, so both
    engines look delays up exactly - no floating-point powers.
    """

    def __init__(
        self,
        *,
        base: int = 1,
        cap: int = 64,
        jitter: int = 0,
        budget: int | None = None,
    ) -> None:
        if base < 1:
            raise ValueError(f"base must be >= 1, got {base}")
        if cap < base:
            raise ValueError(f"cap must be >= base, got cap={cap} base={base}")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        if budget is not None and budget < 0:
            raise ValueError(f"budget must be >= 0 or None, got {budget}")
        self.base = int(base)
        self.cap = int(cap)
        self.jitter = int(jitter)
        self.budget = budget
        self.needs_draws = jitter > 0
        # table[i] = uncapped-then-capped delay of retry i+1; exact ints.
        table = []
        delay = self.base
        while delay < self.cap:
            table.append(delay)
            delay *= 2
        table.append(self.cap)
        self._table = np.asarray(table, dtype=np.int64)
        suffix = "" if budget is None else f", budget={budget}"
        self.name = (
            f"backoff(base={self.base}, cap={self.cap}, "
            f"jitter={self.jitter}{suffix})"
        )

    def delays(self, retries, jitter_u):
        retries = np.asarray(retries, dtype=np.int64)
        if (retries < 1).any():
            raise ValueError("retry numbers are 1-based")
        index = np.minimum(retries - 1, self._table.size - 1)
        delay = self._table[index]
        if self.jitter > 0:
            if jitter_u is None:
                raise ValueError(
                    "backoff with jitter needs per-request jitter uniforms"
                )
            delay = delay + (
                np.asarray(jitter_u, dtype=np.float64) * (self.jitter + 1)
            ).astype(np.int64)
        return delay


# ----------------------------------------------------------------------
# Admission policies
# ----------------------------------------------------------------------
class AdmissionState(ABC):
    """Per-run admission bookkeeping, vectorized across trials.

    The scalar oracle instantiates the same state with ``trials=1`` and
    length-1 arrays, so stateful policies (token buckets) evolve through
    the identical float operations on every engine.
    """

    @abstractmethod
    def quota(
        self,
        occupancy: np.ndarray,
        candidates: np.ndarray,
        capacity: int,
        draws: np.ndarray | None,
    ) -> np.ndarray:
        """Admissions the policy grants this round (int64, per trial).

        ``candidates`` counts this round's presentations (rejoins plus
        fresh arrivals); ``occupancy`` is the buffer fill *before* any
        are admitted.  The driver separately clamps the grant to the
        physical ``capacity - occupancy``.
        """

    def commit(self, admitted: np.ndarray) -> None:
        """Record the admissions actually performed (post-clamp)."""


class _UnlimitedState(AdmissionState):
    def quota(self, occupancy, candidates, capacity, draws):
        return candidates


class AdmissionPolicy(ABC):
    """Whether a presenting request is let into the service buffer."""

    name: str
    #: Whether the driver must pre-draw one admission uniform per round.
    needs_draws: bool = False

    @abstractmethod
    def state(self, trials: int) -> AdmissionState:
        """Fresh per-run state for ``trials`` independent channels."""


class HardCapacityPolicy(AdmissionPolicy):
    """PR 7's behaviour: the buffer limit is the only admission gate."""

    def __init__(self) -> None:
        self.name = "capacity"

    def state(self, trials: int) -> AdmissionState:
        return _UnlimitedState()


class _TokenBucketState(AdmissionState):
    def __init__(self, trials: int, rate: float, burst: float) -> None:
        self._rate = rate
        self._burst = burst
        self._tokens = np.full(trials, burst, dtype=np.float64)

    def quota(self, occupancy, candidates, capacity, draws):
        self._tokens = np.minimum(self._tokens + self._rate, self._burst)
        return np.floor(self._tokens).astype(np.int64)

    def commit(self, admitted):
        self._tokens -= admitted


class TokenBucketPolicy(AdmissionPolicy):
    """Meter admissions to ``rate`` per round with a ``burst`` allowance.

    Tokens refill by ``rate`` per round up to ``burst`` (the bucket
    starts full); each admission spends one token and the round's grant
    is the whole tokens held.  Exact IEEE add/min/floor/subtract, so the
    bucket trajectory is identical on every engine.
    """

    def __init__(self, *, rate: float, burst: float = 1.0) -> None:
        if not (rate > 0.0) or not math.isfinite(rate):
            raise ValueError(f"rate must be positive and finite, got {rate}")
        if not (burst >= 1.0) or not math.isfinite(burst):
            raise ValueError(f"burst must be >= 1 and finite, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.name = f"token-bucket(rate={self.rate:g}, burst={self.burst:g})"

    def state(self, trials: int) -> AdmissionState:
        return _TokenBucketState(trials, self.rate, self.burst)


class _SheddingState(AdmissionState):
    def __init__(self, policy: "OccupancySheddingPolicy") -> None:
        self._policy = policy

    def quota(self, occupancy, candidates, capacity, draws):
        shed_p = self._policy.shed_probability(
            occupancy.astype(np.float64) / capacity
        )
        return np.where(draws < shed_p, 0, candidates)


class OccupancySheddingPolicy(AdmissionPolicy):
    """Probabilistic shedding keyed on buffer occupancy.

    Below ``threshold`` (an occupancy fraction) everything is admitted;
    above it the shed probability ramps as
    ``((frac - threshold) / (1 - threshold)) ** power``, reaching 1 at a
    full buffer.  One pre-drawn uniform per round decides the round's
    whole presentation batch (arrival batches are small at the
    per-round granularity the driver works in), which keeps the stream
    contract population-independent.
    """

    needs_draws = True

    def __init__(self, *, threshold: float = 0.5, power: float = 1.0) -> None:
        if not (0.0 <= threshold < 1.0):
            raise ValueError(
                f"threshold must be in [0, 1), got {threshold}"
            )
        if not (power > 0.0) or not math.isfinite(power):
            raise ValueError(f"power must be positive and finite, got {power}")
        self.threshold = float(threshold)
        self.power = float(power)
        self.name = f"shed(threshold={self.threshold:g}, power={self.power:g})"

    def shed_probability(self, frac: np.ndarray) -> np.ndarray:
        """Shed probability at occupancy fraction ``frac`` (vectorized)."""
        frac = np.asarray(frac, dtype=np.float64)
        over = np.clip(
            (frac - self.threshold) / (1.0 - self.threshold), 0.0, 1.0
        )
        return over**self.power

    def state(self, trials: int) -> AdmissionState:
        return _SheddingState(self)


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------
def _build_give_up(params: Params) -> RetryPolicy:
    return GiveUpPolicy()


def _build_immediate(params: Params) -> RetryPolicy:
    return ImmediateRetryPolicy(budget=params.take("budget", int, None))


def _build_backoff(params: Params) -> RetryPolicy:
    return ExponentialBackoffPolicy(
        base=params.take("base", int, 1),
        cap=params.take("cap", int, 64),
        jitter=params.take("jitter", int, 0),
        budget=params.take("budget", int, None),
    )


def _build_capacity(params: Params) -> AdmissionPolicy:
    return HardCapacityPolicy()


def _build_token_bucket(params: Params) -> AdmissionPolicy:
    return TokenBucketPolicy(
        rate=params.take("rate", float), burst=params.take("burst", float, 1.0)
    )


def _build_shed(params: Params) -> AdmissionPolicy:
    return OccupancySheddingPolicy(
        threshold=params.take("threshold", float, 0.5),
        power=params.take("power", float, 1.0),
    )


RETRY_POLICIES = Registry(
    "retry policy",
    {
        "give-up": _build_give_up,
        "immediate": _build_immediate,
        "backoff": _build_backoff,
    },
)

ADMISSION_POLICIES = Registry(
    "admission policy",
    {
        "capacity": _build_capacity,
        "token-bucket": _build_token_bucket,
        "shed": _build_shed,
    },
)


def retry_policy_from_dict(data: Mapping) -> RetryPolicy:
    """Build a retry policy from ``{"kind": ..., **params}``."""
    params = Params(data, "retry policy")
    return RETRY_POLICIES.build(params.pop("kind", None), params)


def admission_policy_from_dict(data: Mapping) -> AdmissionPolicy:
    """Build an admission policy from ``{"kind": ..., **params}``."""
    params = Params(data, "admission policy")
    return ADMISSION_POLICIES.build(params.pop("kind", None), params)
