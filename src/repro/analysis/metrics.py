"""Statistical summaries used by the Monte Carlo harness and experiments.

Plain dataclasses that serialize from their own fields
(:class:`Record`), plus a handful of estimators: sample summaries with
normal-approximation confidence intervals, Wilson intervals for success
probabilities, and the log-log regression used to extract scaling
exponents from sweep data (the quantitative form of the paper's shape
claims).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import MISSING, dataclass, fields

import numpy as np

__all__ = [
    "Record",
    "Summary",
    "ProportionEstimate",
    "wilson_interval",
    "loglog_slope",
    "linear_fit",
]


def nan_to_none(value: float) -> float | None:
    """A statistic as result JSON holds it: NaN (no samples) is ``null``."""
    return None if isinstance(value, float) and math.isnan(value) else value


def none_to_nan(value) -> float:
    """The inverse of :func:`nan_to_none`: ``null`` reads back as NaN."""
    return float("nan") if value is None else float(value)


#: Declared field type -> the function reading it back from JSON; a
#: module that postpones annotations declares the type's name.
_READERS = {int: int, "int": int, float: none_to_nan, "float": none_to_nan}


class Record:
    """Base of a frozen dataclass of numbers whose JSON is its fields.

    :meth:`to_dict` copies the instance dict, which holds the fields and
    nothing else, in declaration order, writing NaN as ``null``.
    :meth:`from_dict` reads each field back by its declared type, ``int``
    or a float whose ``null`` reads as NaN; a missing field takes its
    default, and a missing field without one raises :class:`KeyError`.
    Every ``int`` field is a count: construction, and so
    :meth:`from_dict`, refuses a negative one with a :class:`ValueError`
    naming the field.
    """

    def __post_init__(self) -> None:
        for name in _counts(type(self)):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(
                    f"{type(self).__name__} {name} must be >= 0, got {value}"
                )

    def to_dict(self) -> dict:
        """JSON-native dict (NaN statistics encode as ``null``)."""
        return {name: nan_to_none(value) for name, value in vars(self).items()}

    @classmethod
    def from_dict(cls, data: Mapping):
        return cls(
            **{
                name: read(data[name])
                for name, read, required in _readers(cls)
                if required or name in data
            }
        )


@functools.cache
def _readers(cls: type) -> tuple:
    """``(name, reader, required)`` per field of a :class:`Record` class."""
    return tuple(
        (
            spec_field.name,
            _READERS[spec_field.type],
            spec_field.default is MISSING and spec_field.default_factory is MISSING,
        )
        for spec_field in fields(cls)
    )


@functools.cache
def _counts(cls: type) -> tuple[str, ...]:
    """The ``int`` fields of a :class:`Record` class, in order."""
    return tuple(name for name, read, _ in _readers(cls) if read is int)


@dataclass(frozen=True)
class Summary(Record):
    """Summary statistics of a sample of round counts (or any scalars).

    ``count == 0`` is a legal state (see :meth:`empty`): a Monte Carlo
    batch in which *no* trial succeeded has no solving-round samples, and
    the summary says so explicitly (NaN statistics) instead of fabricating
    a sample pinned at the budget.
    """

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    median: float
    p90: float

    @classmethod
    def empty(cls) -> "Summary":
        """The explicit zero-sample summary: nothing to summarise."""
        nan = float("nan")
        return cls(
            count=0, mean=nan, std=nan, minimum=nan, maximum=nan,
            median=nan, p90=nan,
        )

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "Summary":
        """Summarise a non-empty sample, field for field as numpy would.

        ``mean`` and ``std`` (``ddof=1``; 0.0 for one sample) are
        ``np.mean`` and ``np.std``'s own steps without their wrappers:
        ``np.add.reduce`` over the samples in their given order (numpy's
        pairwise summation), the division, and for ``std`` the squared
        deviations and the square root.  ``median`` and ``p90`` skip the
        generic wrappers of ``np.median`` and ``np.quantile`` but make
        their partitions (the same kth lists) and their arithmetic: the
        mean of the middle slice, and the default "linear" rule at 0.9
        (:func:`_linear_quantile`).  An integer array (what
        :meth:`~repro.channel.trace.BatchExecutionResult.rounds_summary`
        passes) holds no NaN and no signed zero, and its floats keep its
        order, so one sort gives all four order statistics.  Every field
        equals what those numpy functions return, down to the sign of
        zero, and a NaN sample makes the median and p90 NaN.
        """
        if len(samples) == 0:
            raise ValueError(
                "cannot summarise an empty sample; use Summary.empty() for "
                "the explicit no-samples state"
            )
        data = np.asarray(samples, dtype=float)
        size = data.size
        half = size // 2
        if isinstance(samples, np.ndarray) and samples.dtype.kind in "iu":
            ordered = np.sort(data)
            minimum, maximum = ordered[0], ordered[-1]
            # One middle element twice for odd sizes: (x + x) / 2 is x.
            median = (ordered[(size - 1) // 2] + ordered[half]) / 2
            p90 = _linear_quantile(ordered, 0.9)
        else:
            # np.median's own partition: its kth list, the middle pair (or
            # element) plus the last index, where any NaN lands.
            middle = np.partition(
                data, [half - 1, half, -1] if size % 2 == 0 else [half, -1]
            )
            minimum, maximum = data.min(), data.max()
            if math.isnan(middle[-1]):
                median = p90 = middle[-1]
            else:
                # A 1-element slice even for odd sizes: np.median takes the
                # mean of it, which reads a middle -0.0 as 0.0.
                median = np.mean(middle[(size - 1) // 2 : half + 1])
                p90 = _linear_quantile(data, 0.9)
        mean = np.add.reduce(data) / size
        std = 0.0
        if size > 1:
            deviations = data - mean
            std = math.sqrt(np.add.reduce(deviations * deviations) / (size - 1))
        return cls(
            count=int(size),
            mean=float(mean),
            std=std,
            minimum=float(minimum),
            maximum=float(maximum),
            median=float(median),
            p90=float(p90),
        )

    @property
    def sem(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(self.count) if self.count > 0 else math.inf

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the normal-approximation 95% CI for the mean."""
        return 1.96 * self.sem

    def ci95(self) -> tuple[float, float]:
        """Normal-approximation 95% confidence interval for the mean."""
        return self.mean - self.ci95_halfwidth, self.mean + self.ci95_halfwidth


def _linear_quantile(data: np.ndarray, q: float) -> np.float64:
    """``np.quantile(data, q)`` of a NaN-free sample, step for step.

    numpy's default "linear" rule: the virtual index ``(n - 1) q`` sits
    between two order statistics, blended by its fractional part.  At or
    past the last index both neighbours are the last element and the
    weight is the index plus one, as numpy's ``_get_indexes`` and
    ``_get_gamma`` set them - which is why one infinite sample reads NaN,
    as in numpy.  The order statistics come from numpy's own partition
    (the same kth list): a sort may order tied zeros of opposite sign
    differently, and the blend, ``_lerp``'s two-sided formula, keeps the
    sign of the zeros it reads.
    """
    last = data.size - 1
    virtual = last * q
    below = math.floor(virtual)
    if virtual >= last:
        below = above = -1
    else:
        above = below + 1
    gamma = virtual - below
    part = np.partition(data, sorted({0, -1, below, above}))
    low, high = part[below], part[above]
    diff = high - low
    if gamma >= 0.5:
        return high - diff * (1 - gamma)
    return low + diff * gamma


@dataclass(frozen=True)
class ProportionEstimate(Record):
    """A success-probability estimate with its Wilson 95% interval."""

    successes: int
    trials: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.successes > self.trials:
            raise ValueError(
                f"ProportionEstimate successes {self.successes} outside "
                f"0..{self.trials}"
            )

    @property
    def rate(self) -> float:
        if self.trials == 0:
            raise ValueError("no trials recorded")
        return self.successes / self.trials

    def interval(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)

    @property
    def lower(self) -> float:
        return self.interval()[0]

    @property
    def upper(self) -> float:
        return self.interval()[1]


def wilson_interval(
    successes: int, trials: int, *, z: float = 1.96
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because the experiments verify
    probability *floors* (1/8, 1/16): the Wilson interval behaves sanely
    near 0 and 1 where the normal interval does not.
    """
    if trials <= 0:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside 0..{trials}")
    phat = successes / trials
    denominator = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denominator
    margin = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
        / denominator
    )
    return max(0.0, center - margin), min(1.0, center + margin)


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope and intercept of ``y = slope * x + intercept``."""
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a line")
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, deg=1)
    return float(slope), float(intercept)


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Scaling exponent from a log-log regression.

    Fits ``log2 y = slope * log2 x + c``; the slope is the empirical
    scaling exponent used in the Table 1/2 shape checks (e.g. measured
    rounds vs ``2^H`` should regress to slope ~2 for the no-CD upper
    bound's ``2^{2H}``).  Non-positive points are rejected - callers clamp
    first if their data can touch zero.
    """
    for value in list(xs) + list(ys):
        if value <= 0:
            raise ValueError("log-log fit requires strictly positive data")
    log_x = [math.log2(value) for value in xs]
    log_y = [math.log2(value) for value in ys]
    slope, _ = linear_fit(log_x, log_y)
    return slope
