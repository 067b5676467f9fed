"""Streaming arrival processes for the open-system driver.

A closed scenario draws one contender count and runs the batch to
completion; the open system instead injects requests *per round* from an
:class:`ArrivalProcess` and lets the live population rise and fall.  The
registry mirrors ``scenarios/workloads.py``:

* ``poisson`` - :class:`PoissonArrivals`, memoryless rate-``rate``
  arrivals per round, the classic offered-load dial.
* ``zipf-hotspot`` - :class:`ZipfHotspotArrivals`, Poisson *events* each
  carrying a heavy-tailed (truncated-Zipf) batch of requests, modelling
  hotspot keys whose fan-in bursts together.
* ``bursty`` / ``trace`` - :class:`ThinnedArrivals` adapters that reuse
  the closed-workload generators (:class:`MarkovBurstArrivals`,
  :class:`TraceArrivals`) as per-round streams, thinned by a Bernoulli
  factor so device-scale counts become per-round request rates.

All processes draw exclusively from the generator handed to
``sample_rounds`` - they hold no RNG of their own - so the driver's
per-trial :class:`numpy.random.SeedSequence` streams fully determine the
traffic and shards stay reproducible.

:class:`ClampedArrivalSizeSource` adapts any arrival process the other
way - into a closed-workload batch-size source - for the satellite
``poisson``/``zipf-hotspot`` workload kinds.
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from collections.abc import Mapping

import numpy as np

from ..channel.arrivals import MIN_COUNT, MarkovBurstArrivals, TraceArrivals
from ..core.named import Params, Registry

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "ZipfHotspotArrivals",
    "ThinnedArrivals",
    "ClampedArrivalSizeSource",
    "ARRIVAL_FAMILIES",
    "arrival_process_from_dict",
]


class ArrivalProcess(ABC):
    """A streaming request source: per-round injection counts.

    Subclasses must be stateless across ``sample_rounds`` calls *or*
    restore their stream position on :meth:`reset`; the driver calls
    :meth:`clone` once per trial so trials never share mutable state,
    and a process that ``sample_rounds`` never mutates may return
    itself.  The driver draws each trial's counts in 32-round blocks at
    absolute boundaries, one call per block, so a process's draws may
    depend on the block width.
    """

    name: str
    #: Internal to the built-in families: True only on
    #: :class:`PoissonArrivals`, whose one call of ``a + b`` rounds draws
    #: what calls of ``a`` and then ``b`` rounds draw, so the vectorized
    #: engines draw two of its blocks in one call.
    width_free = False

    @abstractmethod
    def sample_rounds(self, rng: np.random.Generator, rounds: int) -> np.ndarray:
        """Draw the next ``rounds`` injection counts (int64 array)."""

    @property
    @abstractmethod
    def offered_load(self) -> float:
        """Mean requests injected per round."""

    def clone(self) -> "ArrivalProcess":
        """An independent copy with freshly-reset stream position (the
        process itself when ``sample_rounds`` never mutates it)."""
        fresh = copy.deepcopy(self)
        fresh.reset()
        return fresh

    def reset(self) -> None:
        """Rewind any internal stream position (default: stateless)."""


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals: ``count ~ Poisson(rate)`` each round.

    Stateless, so :meth:`clone` returns the process itself, and width
    free: every round's count is one Poisson draw in round order.
    """

    width_free = True

    def __init__(self, rate: float, *, name: str = "") -> None:
        if not (rate > 0.0) or not math.isfinite(rate):
            raise ValueError(f"rate must be positive and finite, got {rate}")
        self.rate = float(rate)
        self.name = name or f"poisson(rate={self.rate:g})"

    def sample_rounds(self, rng: np.random.Generator, rounds: int) -> np.ndarray:
        return rng.poisson(self.rate, size=rounds).astype(np.int64, copy=False)

    def clone(self) -> "PoissonArrivals":
        return self

    @property
    def offered_load(self) -> float:
        return self.rate


#: Largest hotspot batch: the batch-size CDF is a table of this length.
_MAX_BATCH = 2**20


class ZipfHotspotArrivals(ArrivalProcess):
    """Poisson events carrying truncated-Zipf batch sizes.

    Each round draws ``events ~ Poisson(rate)``; each event injects a
    batch of ``1..max_batch`` requests with ``P(size=i)`` proportional to
    ``i**-alpha`` - the hotspot-key pattern where a popular object's
    requesters collide together.  ``alpha`` large -> mostly singletons;
    ``alpha`` near 0 -> near-uniform batch sizes up to ``max_batch``.
    Stateless, so :meth:`clone` returns the process itself; not width
    free, since a call draws all its event counts before their sizes.
    """

    def __init__(
        self,
        rate: float,
        *,
        alpha: float = 1.5,
        max_batch: int = 32,
        name: str = "",
    ) -> None:
        if not (rate > 0.0) or not math.isfinite(rate):
            raise ValueError(f"rate must be positive and finite, got {rate}")
        if not (alpha >= 0.0) or not math.isfinite(alpha):
            raise ValueError(f"alpha must be >= 0 and finite, got {alpha}")
        if not 1 <= max_batch <= _MAX_BATCH:
            raise ValueError(
                f"max_batch must be in [1, {_MAX_BATCH}], got {max_batch}"
            )
        self.rate = float(rate)
        self.alpha = float(alpha)
        self.max_batch = int(max_batch)
        weights = np.arange(1, self.max_batch + 1, dtype=np.float64) ** -self.alpha
        self._cdf = np.cumsum(weights / weights.sum())
        self._mean_batch = float(
            (np.arange(1, self.max_batch + 1) * np.diff(self._cdf, prepend=0.0)).sum()
        )
        self.name = name or (
            f"zipf-hotspot(rate={self.rate:g}, alpha={self.alpha:g}, "
            f"max_batch={self.max_batch})"
        )

    def sample_rounds(self, rng: np.random.Generator, rounds: int) -> np.ndarray:
        events = rng.poisson(self.rate, size=rounds)
        total = int(events.sum())
        counts = np.zeros(rounds, dtype=np.int64)
        if total == 0:
            return counts
        # Inverse-CDF draw of every event's batch size in one shot, then
        # scatter the sizes back onto their rounds.
        sizes = np.searchsorted(self._cdf, rng.random(total), side="right") + 1
        np.add.at(counts, np.repeat(np.arange(rounds), events), sizes)
        return counts

    def clone(self) -> "ZipfHotspotArrivals":
        return self

    @property
    def offered_load(self) -> float:
        return self.rate * self._mean_batch


def _source_mean(source) -> float:
    """Stationary mean count of a closed-workload stream (pre-thinning).

    An analytic estimate used only for the ``offered_load`` report - the
    Markov chain's clamp into ``[MIN_COUNT, devices]`` is ignored, so the
    value slightly undershoots at very low rates.
    """
    if isinstance(source, TraceArrivals):
        return float(source._trace.mean())
    if isinstance(source, MarkovBurstArrivals):
        switching = source.burst_arrival + source.burst_departure
        if switching > 0.0:
            burst_share = source.burst_arrival / switching
        else:
            burst_share = 1.0 if source.start_in_burst else 0.0
        rate = burst_share * source.burst_rate + (1.0 - burst_share) * source.calm_rate
        return source.devices * rate
    return float("nan")


class ThinnedArrivals(ArrivalProcess):
    """Adapter: a closed-workload device stream thinned to request rate.

    Wraps a ``sample_many``-capable source (:class:`MarkovBurstArrivals`
    or :class:`TraceArrivals`) and keeps each device's request with
    probability ``thin`` - a Bernoulli thinning that turns device-scale
    batch counts into per-round arrival counts while preserving the
    wrapped stream's burst/trace structure.
    """

    def __init__(self, wrapped, *, thin: float, name: str = "") -> None:
        if not hasattr(wrapped, "sample_many"):
            raise TypeError(
                f"wrapped source must support sample_many, got {type(wrapped).__name__}"
            )
        if not (0.0 < thin <= 1.0):
            raise ValueError(f"thin must be in (0, 1], got {thin}")
        self.wrapped = wrapped
        self.thin = float(thin)
        self.name = name or f"thinned({wrapped.name}, thin={self.thin:g})"

    def sample_rounds(self, rng: np.random.Generator, rounds: int) -> np.ndarray:
        base = np.asarray(self.wrapped.sample_many(rng, rounds), dtype=np.int64)
        return rng.binomial(base, self.thin).astype(np.int64)

    @property
    def offered_load(self) -> float:
        return _source_mean(self.wrapped) * self.thin

    def reset(self) -> None:
        reset = getattr(self.wrapped, "reset", None)
        if reset is not None:
            reset()


class ClampedArrivalSizeSource:
    """Closed-workload adapter: arrival counts as contender batch sizes.

    Presents an :class:`ArrivalProcess` through the workload-source
    interface (``sample`` / ``sample_many`` / ``n``) used by
    ``resolve_workload``, clamping draws into ``[MIN_COUNT, n]`` the same
    way the bursty/trace workloads clamp device counts.
    """

    def __init__(self, process: ArrivalProcess, n: int) -> None:
        if n < MIN_COUNT:
            raise ValueError(f"n must be >= {MIN_COUNT}, got {n}")
        self.process = process
        self.n = int(n)
        self.name = f"clamped({process.name}, n={self.n})"

    def sample(self, rng: np.random.Generator) -> int:
        return int(self.sample_many(rng, 1)[0])

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        draws = self.process.sample_rounds(rng, count)
        return np.clip(draws, MIN_COUNT, self.n).astype(np.int64)


def _build_poisson(params: Params) -> ArrivalProcess:
    return PoissonArrivals(params.take("rate", float))


def _build_zipf_hotspot(params: Params) -> ArrivalProcess:
    return ZipfHotspotArrivals(
        params.take("rate", float),
        alpha=params.take("alpha", float, 1.5),
        max_batch=params.take("max_batch", int, 32),
    )


def _build_bursty(params: Params) -> ArrivalProcess:
    burst = MarkovBurstArrivals(
        params.take("devices", int),
        calm_rate=params.take("calm_rate", float, 0.01),
        burst_rate=params.take("burst_rate", float, 0.2),
        burst_arrival=params.take("burst_arrival", float, 0.05),
        burst_departure=params.take("burst_departure", float, 0.25),
        start_in_burst=params.take("start_in_burst", bool, False),
    )
    return ThinnedArrivals(burst, thin=params.take("thin", float))


def _build_trace(params: Params) -> ArrivalProcess:
    counts = [
        Params.check(count, int, f"{params.what} count")
        for count in params.take("counts", list)
    ]
    return ThinnedArrivals(
        TraceArrivals(counts), thin=params.take("thin", float, 1.0)
    )


ARRIVAL_FAMILIES = Registry(
    "arrival family",
    {
        "poisson": _build_poisson,
        "zipf-hotspot": _build_zipf_hotspot,
        "bursty": _build_bursty,
        "trace": _build_trace,
    },
)


def arrival_process_from_dict(data: Mapping) -> ArrivalProcess:
    """Build an arrival process from ``{"family": ..., **params}``."""
    params = Params(data, "arrival")
    return ARRIVAL_FAMILIES.build(params.pop("family", None), params)
