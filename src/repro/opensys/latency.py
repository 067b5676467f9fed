"""Per-request latency capture for open-system runs.

An open-system simulation measures *sojourn times* - rounds from a
request's arrival to its delivered success - rather than the closed
batches' rounds-to-success.  Two pieces:

* :class:`LatencyStore` - the accumulator the drivers write into.  Sojourn
  times are positive integers bounded by the run length, so the store
  keeps an **exact integer histogram** instead of a lossy reservoir:
  percentiles are exact, memory is bounded by the longest observed
  sojourn, and :meth:`LatencyStore.merge` (bin-wise addition of
  histograms and counters) is exactly associative and commutative - the
  property that lets trial shards, sweep re-runs and serialized results
  combine without approximation error, mirroring how the closed engines'
  per-point results concatenate.

* :class:`LatencySummary` - the derived, human-facing statistics
  (p50/p90/p99, mean, max, throughput, drop/timeout counts).  Like
  :meth:`~repro.analysis.metrics.Summary.empty`, a store that measured no
  completions summarises to an explicit zero-sample state (NaN
  statistics) instead of fabricating data.

Percentiles use the nearest-rank definition - the smallest observed
sojourn whose cumulative count reaches ``ceil(q * completed)`` - which is
exact on the histogram and monotone in ``q`` by construction.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..analysis.metrics import nan_to_none, none_to_nan

__all__ = ["LatencyStore", "LatencySummary"]


@dataclass(frozen=True)
class LatencySummary:
    """Derived statistics of one open-system run (or merged shards).

    Attributes
    ----------
    completed:
        Measured completions - requests that arrived after the warmup and
        departed with a delivered success.  All latency statistics rest on
        exactly these samples.
    mean / p50 / p90 / p99 / maximum:
        Sojourn-time statistics in rounds (NaN when ``completed == 0``).
    throughput:
        Measured completions per trial-round: ``completed / round_slots``
        (NaN when no rounds were measured).  Per *trial*-round so merged
        shards report the same per-channel rate as their parts.  Because
        ``completed`` counts only delivered successes, this is the run's
        *goodput* - retries that never complete contribute nothing.
    arrivals / dropped / timed_out / in_flight:
        Whole-run load counters: fresh requests generated, requests that
        died at a refused first admission, requests that died at their
        first sojourn timeout, and requests still pending in the service
        buffer when the run ended.
    attempts / retried / abandoned / in_orbit:
        Lifecycle counters (all zero under the default give-up/capacity
        policies): admission presentations (fresh arrivals plus orbit
        rejoins - equals ``arrivals`` when nothing retries), orbit
        entries (retry events), requests that died after exhausting
        their retry budget, and requests still waiting in the orbit
        when the run ended.  At ``warmup = 0`` requests are conserved:
        ``arrivals == completed + dropped + timed_out + abandoned +
        in_flight + in_orbit``.
    round_slots:
        Measured trial-rounds (trials x post-warmup rounds).
    """

    completed: int
    mean: float
    p50: float
    p90: float
    p99: float
    maximum: float
    throughput: float
    arrivals: int
    dropped: int
    timed_out: int
    in_flight: int
    round_slots: int
    attempts: int = 0
    retried: int = 0
    abandoned: int = 0
    in_orbit: int = 0

    def to_dict(self) -> dict:
        """JSON-native dict (NaN statistics encode as ``null``)."""
        return {
            "completed": self.completed,
            "mean": nan_to_none(self.mean),
            "p50": nan_to_none(self.p50),
            "p90": nan_to_none(self.p90),
            "p99": nan_to_none(self.p99),
            "maximum": nan_to_none(self.maximum),
            "throughput": nan_to_none(self.throughput),
            "arrivals": self.arrivals,
            "dropped": self.dropped,
            "timed_out": self.timed_out,
            "in_flight": self.in_flight,
            "round_slots": self.round_slots,
            "attempts": self.attempts,
            "retried": self.retried,
            "abandoned": self.abandoned,
            "in_orbit": self.in_orbit,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "LatencySummary":
        return cls(
            completed=int(data["completed"]),
            mean=none_to_nan(data["mean"]),
            p50=none_to_nan(data["p50"]),
            p90=none_to_nan(data["p90"]),
            p99=none_to_nan(data["p99"]),
            maximum=none_to_nan(data["maximum"]),
            throughput=none_to_nan(data["throughput"]),
            arrivals=int(data["arrivals"]),
            dropped=int(data["dropped"]),
            timed_out=int(data["timed_out"]),
            in_flight=int(data["in_flight"]),
            round_slots=int(data["round_slots"]),
            attempts=int(data.get("attempts", 0)),
            retried=int(data.get("retried", 0)),
            abandoned=int(data.get("abandoned", 0)),
            in_orbit=int(data.get("in_orbit", 0)),
        )

    def render(self) -> str:
        """One-line human-readable latency report."""
        if self.completed == 0:
            stats = "latency n/a (no measured completion)"
        else:
            stats = (
                f"p50 {self.p50:.0f}  p90 {self.p90:.0f}  p99 {self.p99:.0f}  "
                f"max {self.maximum:.0f}  mean {self.mean:.2f}"
            )
        throughput = (
            "n/a" if math.isnan(self.throughput) else f"{self.throughput:.4f}"
        )
        lifecycle = ""
        if self.retried or self.abandoned or self.in_orbit:
            lifecycle = (
                f"  retried {self.retried}  abandoned {self.abandoned}  "
                f"in-orbit {self.in_orbit}"
            )
        return (
            f"{stats}  throughput {throughput}/round  "
            f"completed {self.completed}  dropped {self.dropped}  "
            f"timed-out {self.timed_out}  in-flight {self.in_flight}"
            f"{lifecycle}"
        )


class LatencyStore:
    """Exact, mergeable sojourn-time accumulator.

    ``hist[s]`` counts measured completions with sojourn ``s`` rounds
    (``s >= 1``; bin 0 is unused and always zero).  Counters track the
    whole run's load bookkeeping; see :class:`LatencySummary` for their
    meaning.  All mutators are integer-exact, so merging shards in any
    grouping yields bit-identical state.
    """

    #: Counter attributes merged, serialized and compared alongside the
    #: histogram; single source of truth for :meth:`merge` / dict I/O.
    COUNTERS = (
        "arrivals",
        "dropped",
        "timed_out",
        "in_flight",
        "round_slots",
        "attempts",
        "retried",
        "abandoned",
        "in_orbit",
    )

    def __init__(self) -> None:
        self._hist = np.zeros(0, dtype=np.int64)
        for counter in self.COUNTERS:
            setattr(self, counter, 0)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _ensure(self, size: int) -> None:
        if size > self._hist.size:
            grown = np.zeros(size, dtype=np.int64)
            grown[: self._hist.size] = self._hist
            self._hist = grown

    def record(self, sojourn: int) -> None:
        """Record one measured completion of ``sojourn`` rounds."""
        if sojourn < 1:
            raise ValueError(f"sojourn must be >= 1, got {sojourn}")
        self._ensure(sojourn + 1)
        self._hist[sojourn] += 1

    def record_many(self, sojourns: np.ndarray | Sequence[int]) -> None:
        """Record a batch of measured completions (one bincount)."""
        data = np.asarray(sojourns, dtype=np.int64)
        if data.size == 0:
            return
        if (data < 1).any():
            raise ValueError("sojourns must all be >= 1")
        counts = np.bincount(data)
        self._ensure(counts.size)
        self._hist[: counts.size] += counts

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    @property
    def completed(self) -> int:
        return int(self._hist.sum())

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the measured sojourns.

        The smallest sojourn whose cumulative count reaches
        ``ceil(q * completed)``; monotone (non-decreasing) in ``q``.  NaN
        when nothing was measured.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile level must be in [0, 1], got {q}")
        total = self.completed
        if total == 0:
            return float("nan")
        rank = max(1, math.ceil(q * total))
        cumulative = np.cumsum(self._hist)
        return float(np.searchsorted(cumulative, rank))

    def summary(self) -> LatencySummary:
        """The derived :class:`LatencySummary` of the current state."""
        total = self.completed
        if total == 0:
            nan = float("nan")
            mean = p50 = p90 = p99 = maximum = nan
        else:
            values = np.arange(self._hist.size)
            mean = float((values * self._hist).sum() / total)
            maximum = float(np.flatnonzero(self._hist)[-1])
            p50 = self.percentile(0.50)
            p90 = self.percentile(0.90)
            p99 = self.percentile(0.99)
        throughput = (
            total / self.round_slots if self.round_slots > 0 else float("nan")
        )
        return LatencySummary(
            completed=total,
            mean=mean,
            p50=p50,
            p90=p90,
            p99=p99,
            maximum=maximum,
            throughput=throughput,
            arrivals=self.arrivals,
            dropped=self.dropped,
            timed_out=self.timed_out,
            in_flight=self.in_flight,
            round_slots=self.round_slots,
            attempts=self.attempts,
            retried=self.retried,
            abandoned=self.abandoned,
            in_orbit=self.in_orbit,
        )

    # ------------------------------------------------------------------
    # Merge / serialization
    # ------------------------------------------------------------------
    def merge(self, other: "LatencyStore") -> "LatencyStore":
        """A new store combining two shards (exactly associative)."""
        merged = LatencyStore()
        size = max(self._hist.size, other._hist.size)
        merged._ensure(size)
        merged._hist[: self._hist.size] += self._hist
        merged._hist[: other._hist.size] += other._hist
        for counter in self.COUNTERS:
            setattr(
                merged, counter, getattr(self, counter) + getattr(other, counter)
            )
        return merged

    def to_dict(self) -> dict:
        """JSON-native state; :meth:`from_dict` inverts it exactly.

        The histogram serializes trimmed to the last non-zero bin, so
        equal-content stores serialize identically whatever growth
        history produced them.
        """
        nonzero = np.flatnonzero(self._hist)
        top = int(nonzero[-1]) + 1 if nonzero.size else 0
        data = {"hist": self._hist[:top].tolist()}
        for counter in self.COUNTERS:
            data[counter] = getattr(self, counter)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "LatencyStore":
        store = cls()
        hist = np.asarray(list(data.get("hist", [])), dtype=np.int64)
        if (hist < 0).any():
            raise ValueError("latency histogram counts must be >= 0")
        if hist.size and hist[0] != 0:
            raise ValueError("latency histogram bin 0 must be zero")
        store._hist = hist
        for counter in cls.COUNTERS:
            setattr(store, counter, int(data.get(counter, 0)))
        return store

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyStore):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"<LatencyStore completed={self.completed} "
            f"arrivals={self.arrivals} dropped={self.dropped}>"
        )
