"""Property-based tests (hypothesis): ``Summary.from_samples`` is numpy's.

Every Table 1/2 row reports a ``Summary`` of round counts.  Each field
must equal what the installed numpy computes on the same float64
samples: ``np.median``, ``np.quantile(x, 0.9)`` (the default "linear"
rule), ``min``, ``max``, ``mean`` and ``std(ddof=1)`` (0.0 for one
sample).  Equal means the same value with the same sign of zero, and a
NaN field where numpy returns NaN.  Comparing against the installed
numpy, rather than against copied constants, makes a numpy that changes
its rule fail here instead of drifting silently.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import Summary

SPECIALS = (0.0, -0.0, math.inf, -math.inf, math.nan)

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIALS),
    # Tenths and small integers make ties and exact midpoints common.
    st.integers(-30, 30).map(lambda tenths: tenths / 10),
)
float_samples = st.lists(floats, min_size=1, max_size=300)
int_samples = st.lists(
    st.integers(min_value=-(2**40), max_value=2**40), min_size=1, max_size=300
)
INT64 = np.iinfo(np.int64)
#: What ``rounds_summary`` passes: an int64 array.  The full range puts
#: values above 2**53, where the float conversion rounds.
int64_arrays = st.lists(
    st.one_of(
        st.integers(min_value=INT64.min, max_value=INT64.max),
        st.integers(-3, 3),
        st.integers(2**53 - 4, 2**53 + 4),
    ),
    min_size=1,
    max_size=300,
).map(lambda values: np.array(values, dtype=np.int64))


def _same(got: float, want: float) -> bool:
    """Equal with the same sign of zero; NaN equals NaN."""
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _check(samples) -> None:
    data = np.asarray(samples, dtype=float)
    with warnings.catch_warnings():
        # inf - inf and the like warn in numpy and in the summary alike.
        warnings.simplefilter("ignore", RuntimeWarning)
        summary = Summary.from_samples(samples)
        want = {
            "mean": float(data.mean()),
            "std": float(data.std(ddof=1)) if data.size > 1 else 0.0,
            "minimum": float(data.min()),
            "maximum": float(data.max()),
            "median": float(np.median(data)),
            "p90": float(np.quantile(data, 0.9)),
        }
    assert summary.count == data.size
    for field, value in want.items():
        got = getattr(summary, field)
        assert isinstance(got, float), field
        assert _same(got, value), (field, got, value)


@given(samples=float_samples)
@settings(max_examples=400, deadline=None)
@example(samples=[-0.0])
@example(samples=[0.0, -0.0])
@example(samples=[-0.0, -0.0, -0.0])
@example(samples=[math.inf])
@example(samples=[-math.inf])
@example(samples=[math.nan])
@example(samples=[math.nan, 1.0, 2.0])
@example(samples=[1.0, math.inf, -math.inf])
@example(samples=[-math.inf, math.inf])
@example(samples=[1e308, -1e308, 1e308])
def test_float_summary_matches_numpy(samples):
    _check(samples)


@given(samples=st.one_of(int_samples, int64_arrays))
@settings(max_examples=400, deadline=None)
@example(samples=[7])
@example(samples=[3, 1])
@example(samples=np.array([7], dtype=np.int64))
@example(samples=np.array([2**53 + 1, 2**53, 2**53 + 3, -(2**63)], dtype=np.int64))
@example(samples=np.array([2**63 - 1, 2**63 - 1], dtype=np.int64))
def test_integer_summary_matches_numpy(samples):
    _check(samples)
