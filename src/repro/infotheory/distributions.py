"""Library of network-size distributions used as workloads.

A :class:`SizeDistribution` models the random variable ``X`` of Section 2.2:
the number of participants ``k`` in an instance of contention resolution,
supported on ``{2, ..., n}``.  The class carries the full pmf, supports
sampling, and condenses to :class:`~repro.infotheory.condense.CondensedDistribution`.

The constructors implement the workload families used by the experiments:

* :meth:`SizeDistribution.point` - perfect prediction (entropy 0);
* :meth:`SizeDistribution.uniform` / :meth:`SizeDistribution.range_uniform`
  - worst-case, maximum-entropy workloads;
* :meth:`SizeDistribution.range_uniform_subset` - the *entropy dial*: equal
  mass on ``m`` ranges gives ``H(c(X)) = log2 m`` exactly;
* :meth:`SizeDistribution.interpolated_entropy` - any real target entropy,
  by mixing a point range with the uniform range distribution;
* :meth:`SizeDistribution.geometric`, :meth:`SizeDistribution.zipf`,
  :meth:`SizeDistribution.bimodal` - structured workloads for the examples
  (diurnal IoT loads etc.);
* :meth:`SizeDistribution.pliam` - the entropy-vs-guesswork separating
  family that supports the paper's Section 2.5 conjecture via Pliam [19].
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

from .condense import (
    MIN_NETWORK_SIZE,
    CondensedDistribution,
    num_ranges,
    range_interval,
    representative_size,
)
from .entropy import entropy as pmf_entropy
from .entropy import guesswork as pmf_guesswork
from .entropy import validate_pmf

__all__ = ["SizeDistribution", "Sampler"]


class Sampler:
    """Precomputed inverse-CDF sampler for a fixed size distribution.

    Sampling network sizes is the hot loop of the Monte Carlo harness; this
    helper computes the cumulative mass once so each batch of draws costs a
    single ``searchsorted``.
    """

    def __init__(self, sizes: np.ndarray, pmf: np.ndarray) -> None:
        if sizes.shape != pmf.shape:
            raise ValueError("sizes and pmf must have equal shapes")
        self._sizes = sizes
        self._cdf = np.cumsum(pmf)
        # Guard the final bucket against floating-point undershoot so that a
        # uniform draw of exactly 1.0 - eps still maps inside the support.
        self._cdf[-1] = 1.0

    def draw(self, rng: np.random.Generator) -> int:
        """Draw one network size."""
        position = np.searchsorted(self._cdf, rng.random(), side="right")
        return int(self._sizes[min(position, len(self._sizes) - 1)])

    def draw_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` sizes as an ``int64`` array."""
        positions = np.searchsorted(self._cdf, rng.random(count), side="right")
        positions = np.minimum(positions, len(self._sizes) - 1)
        return self._sizes[positions].astype(np.int64)


class SizeDistribution:
    """A distribution over network sizes ``{2, ..., n}``.

    Parameters
    ----------
    n:
        Maximum possible network size.
    pmf_by_size:
        Sequence of length ``n + 1`` with ``pmf_by_size[k] = Pr(X = k)``;
        indices 0 and 1 must be zero.
    name:
        Optional human-readable label used in experiment reports.
    """

    def __init__(
        self,
        n: int,
        pmf_by_size: Sequence[float],
        *,
        name: str = "custom",
    ) -> None:
        if n < MIN_NETWORK_SIZE:
            raise ValueError(f"n must be >= {MIN_NETWORK_SIZE}, got {n}")
        if len(pmf_by_size) != n + 1:
            raise ValueError(
                f"pmf_by_size must have length n+1={n + 1}, got {len(pmf_by_size)}"
            )
        pmf = np.asarray(pmf_by_size, dtype=float)
        if pmf[:MIN_NETWORK_SIZE].any():
            raise ValueError(
                f"sizes below {MIN_NETWORK_SIZE} must have zero probability"
            )
        validate_pmf(pmf)
        self.n = n
        self._pmf = pmf
        self.name = name
        self._sampler: Sampler | None = None
        self._condensed: CondensedDistribution | None = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_weights(
        cls, n: int, weights_by_size: Mapping[int, float], *, name: str = "custom"
    ) -> "SizeDistribution":
        """Build from a sparse ``{size: weight}`` mapping (auto-normalised)."""
        pmf = np.zeros(n + 1, dtype=float)
        for size, weight in weights_by_size.items():
            if not MIN_NETWORK_SIZE <= size <= n:
                raise ValueError(
                    f"size {size} outside support [{MIN_NETWORK_SIZE}, {n}]"
                )
            if weight < 0:
                raise ValueError(f"negative weight for size {size}")
            pmf[size] = weight
        total = pmf.sum()
        if total <= 0:
            raise ValueError("weights sum to zero")
        pmf /= total
        return cls(n, pmf, name=name)

    @classmethod
    def point(cls, n: int, k: int, *, name: str | None = None) -> "SizeDistribution":
        """All mass on size ``k`` - the perfect-prediction workload."""
        return cls.from_weights(n, {k: 1.0}, name=name or f"point(k={k})")

    @classmethod
    def uniform(cls, n: int, *, name: str | None = None) -> "SizeDistribution":
        """Uniform over all sizes ``2..n``.

        Note the *condensed* version is not uniform: later ranges contain
        exponentially more sizes, so this workload concentrates condensed
        mass near range ``log n``.
        """
        weights = {k: 1.0 for k in range(MIN_NETWORK_SIZE, n + 1)}
        return cls.from_weights(n, weights, name=name or "uniform-sizes")

    @classmethod
    def range_uniform(cls, n: int, *, name: str | None = None) -> "SizeDistribution":
        """Uniform over the condensed ranges: ``H(c(X)) = log2 log2 n`` exactly.

        This is the paper's maximum-entropy workload: mass ``1/L`` placed at
        the representative size ``2^i`` of each range ``i``.
        """
        count = num_ranges(n)
        weights = {
            min(representative_size(i), n): 1.0 for i in range(1, count + 1)
        }
        return cls.from_weights(n, weights, name=name or "range-uniform")

    @classmethod
    def range_uniform_subset(
        cls,
        n: int,
        ranges: Iterable[int],
        *,
        spread: str = "point",
        name: str | None = None,
    ) -> "SizeDistribution":
        """Equal mass on the given condensed ranges - the entropy dial.

        With ``m`` distinct ranges the condensed entropy is exactly
        ``log2 m``.  ``spread='point'`` puts each range's mass on its
        representative size ``2^i``; ``spread='uniform'`` spreads it evenly
        over the sizes within the range (the condensed distribution is the
        same either way).
        """
        selected = sorted(set(ranges))
        count = num_ranges(n)
        if not selected:
            raise ValueError("must select at least one range")
        for i in selected:
            if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
                raise ValueError(f"range index {i!r} is not an integer")
            if not 1 <= i <= count:
                raise ValueError(f"range {i} out of bounds 1..{count} for n={n}")
        if spread not in ("point", "uniform"):
            raise ValueError(f"unknown spread mode {spread!r}")
        weights: dict[int, float] = {}
        share = 1.0 / len(selected)
        for i in selected:
            if spread == "point":
                weights[min(representative_size(i), n)] = (
                    weights.get(min(representative_size(i), n), 0.0) + share
                )
            else:
                low, high = range_interval(i, n)
                per_size = share / (high - low + 1)
                for size in range(low, high + 1):
                    weights[size] = weights.get(size, 0.0) + per_size
        label = name or f"range-subset(m={len(selected)})"
        return cls.from_weights(n, weights, name=label)

    @classmethod
    def interpolated_entropy(
        cls,
        n: int,
        target_entropy: float,
        *,
        anchor_range: int = 1,
        name: str | None = None,
    ) -> "SizeDistribution":
        """Workload whose condensed entropy is ``target_entropy`` (bits).

        Mixes a point mass on ``anchor_range`` with the uniform range
        distribution: ``q = (1 - lam) * point + lam * uniform``.  The
        condensed entropy is continuous and strictly increasing in ``lam``,
        so the target is located by bisection.  Valid targets lie in
        ``[0, log2 log2 n]``.
        """
        count = num_ranges(n)
        maximum = math.log2(count)
        if not 0.0 <= target_entropy <= maximum + 1e-12:
            raise ValueError(
                f"target entropy {target_entropy} outside [0, {maximum}] for n={n}"
            )

        def entropy_at(lam: float) -> float:
            q = [lam / count] * count
            q[anchor_range - 1] += 1.0 - lam
            return pmf_entropy(q)

        low, high = 0.0, 1.0
        for _ in range(80):
            mid = (low + high) / 2.0
            if entropy_at(mid) < target_entropy:
                low = mid
            else:
                high = mid
        lam = (low + high) / 2.0
        weights: dict[int, float] = {}
        for i in range(1, count + 1):
            mass = lam / count + (1.0 - lam if i == anchor_range else 0.0)
            if mass > 0:
                size = min(representative_size(i), n)
                weights[size] = weights.get(size, 0.0) + mass
        label = name or f"entropy({target_entropy:.2f}b)"
        return cls.from_weights(n, weights, name=label)

    @classmethod
    def geometric(
        cls, n: int, ratio: float = 0.5, *, name: str | None = None
    ) -> "SizeDistribution":
        """Geometric decay over sizes: ``Pr(X = k) ∝ ratio^k``.

        A low-entropy workload concentrated on small networks; typical of
        lightly-loaded access points.
        """
        if not 0.0 < ratio < 1.0:
            raise ValueError(f"ratio must be in (0, 1), got {ratio}")
        weights = {
            k: ratio ** (k - MIN_NETWORK_SIZE)
            for k in range(MIN_NETWORK_SIZE, n + 1)
        }
        return cls.from_weights(n, weights, name=name or f"geometric(r={ratio})")

    @classmethod
    def zipf(
        cls, n: int, exponent: float = 1.0, *, name: str | None = None
    ) -> "SizeDistribution":
        """Zipf-distributed sizes: ``Pr(X = k) ∝ k^-exponent``."""
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        weights = {
            k: float(k) ** -exponent for k in range(MIN_NETWORK_SIZE, n + 1)
        }
        return cls.from_weights(n, weights, name=name or f"zipf(s={exponent})")

    @classmethod
    def bimodal(
        cls,
        n: int,
        low_size: int,
        high_size: int,
        low_weight: float = 0.5,
        *,
        jitter_ranges: int = 0,
        name: str | None = None,
    ) -> "SizeDistribution":
        """Two-mode workload, e.g. night-time vs day-time network occupancy.

        ``jitter_ranges > 0`` spreads each mode over neighbouring ranges to
        model observation noise in the learned predictor.
        """
        if not 0.0 <= low_weight <= 1.0:
            raise ValueError("low_weight must be in [0, 1]")
        weights: dict[int, float] = {}

        def add_mode(center: int, total: float) -> None:
            if jitter_ranges <= 0:
                weights[center] = weights.get(center, 0.0) + total
                return
            from .condense import range_of_size  # local import, no cycle

            center_range = range_of_size(center)
            count = num_ranges(n)
            spread = [
                i
                for i in range(
                    center_range - jitter_ranges, center_range + jitter_ranges + 1
                )
                if 1 <= i <= count
            ]
            per = total / len(spread)
            for i in spread:
                size = min(representative_size(i), n)
                weights[size] = weights.get(size, 0.0) + per

        add_mode(low_size, low_weight)
        add_mode(high_size, 1.0 - low_weight)
        label = name or f"bimodal({low_size}/{high_size})"
        return cls.from_weights(n, weights, name=label)

    @classmethod
    def pliam(
        cls,
        n: int,
        light_ranges: int,
        heavy_mass: float = 0.5,
        *,
        name: str | None = None,
    ) -> "SizeDistribution":
        """Entropy-vs-guesswork separating family (Pliam [19], footnote 3).

        Places ``heavy_mass`` on range 1 and spreads the remainder evenly
        over the next ``light_ranges`` ranges.  Entropy grows like
        ``h(heavy) + (1-heavy) log2 light_ranges`` while the *guesswork* of
        the sorted-probing strategy grows linearly in ``light_ranges``;
        their ratio is unbounded, which is the content of the paper's
        conjecture that ``2^H`` rounds cannot suffice for the natural
        strategy.
        """
        count = num_ranges(n)
        if not 1 <= light_ranges <= count - 1:
            raise ValueError(
                f"light_ranges must be in 1..{count - 1} for n={n}, got {light_ranges}"
            )
        if not 0.0 < heavy_mass < 1.0:
            raise ValueError("heavy_mass must be in (0, 1)")
        weights: dict[int, float] = {
            min(representative_size(1), n): heavy_mass
        }
        per_light = (1.0 - heavy_mass) / light_ranges
        for i in range(2, 2 + light_ranges):
            size = min(representative_size(i), n)
            weights[size] = weights.get(size, 0.0) + per_light
        label = name or f"pliam(light={light_ranges},heavy={heavy_mass})"
        return cls.from_weights(n, weights, name=label)

    @classmethod
    def mixture(
        cls,
        components: Sequence["SizeDistribution"],
        weights: Sequence[float],
        *,
        name: str | None = None,
    ) -> "SizeDistribution":
        """Convex combination of size distributions on the same ``n``."""
        if len(components) != len(weights):
            raise ValueError("components and weights must have equal length")
        if not components:
            raise ValueError("mixture needs at least one component")
        n = components[0].n
        for component in components:
            if component.n != n:
                raise ValueError("all mixture components must share the same n")
        weight_array = np.asarray(weights, dtype=float)
        if (weight_array < 0).any() or weight_array.sum() <= 0:
            raise ValueError("mixture weights must be non-negative, not all zero")
        weight_array = weight_array / weight_array.sum()
        pmf = np.zeros(n + 1, dtype=float)
        for component, weight in zip(components, weight_array):
            pmf += weight * component._pmf
        return cls(n, pmf, name=name or "mixture")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def pmf(self) -> np.ndarray:
        """Copy of the pmf indexed by size (length ``n + 1``)."""
        return self._pmf.copy()

    def probability(self, k: int) -> float:
        """``Pr(X = k)``."""
        if not 0 <= k <= self.n:
            raise ValueError(f"size {k} out of bounds 0..{self.n}")
        return float(self._pmf[k])

    def support(self) -> list[int]:
        """Sizes with non-zero probability, ascending."""
        return [int(k) for k in np.nonzero(self._pmf)[0]]

    def mean(self) -> float:
        """Expected network size ``E[X]``."""
        sizes = np.arange(self.n + 1)
        return float((sizes * self._pmf).sum())

    def entropy(self) -> float:
        """Entropy of the *full* size distribution ``H(X)`` (not condensed)."""
        positive = self._pmf[self._pmf > 0]
        return float(-(positive * np.log2(positive)).sum())

    def condense(self) -> CondensedDistribution:
        """The condensed distribution ``c(X)`` (cached)."""
        if self._condensed is None:
            self._condensed = CondensedDistribution.from_size_pmf(
                self.n, self._pmf
            )
        return self._condensed

    def condensed_entropy(self) -> float:
        """``H(c(X))`` - the quantity the paper's Table 1 bounds use."""
        return self.condense().entropy()

    def guesswork(self) -> float:
        """Expected sequential guesses over condensed ranges (see entropy.py)."""
        return pmf_guesswork(list(self.condense().q))

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sampler(self) -> Sampler:
        """Precomputed sampler over the support (cached)."""
        if self._sampler is None:
            support = np.nonzero(self._pmf)[0]
            self._sampler = Sampler(support, self._pmf[support])
        return self._sampler

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one network size ``k`` with ``Pr(X = k)``."""
        return self.sampler().draw(rng)

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` network sizes."""
        return self.sampler().draw_many(rng, count)

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def map_pmf(
        self, transform: Callable[[np.ndarray], np.ndarray], *, name: str | None = None
    ) -> "SizeDistribution":
        """Apply ``transform`` to the pmf and renormalise.

        Used by the perturbation models to derive predicted distributions
        ``Y`` from the truth ``X``.
        """
        new_pmf = np.asarray(transform(self._pmf.copy()), dtype=float)
        if new_pmf.shape != self._pmf.shape:
            raise ValueError("transform must preserve the pmf shape")
        new_pmf[:MIN_NETWORK_SIZE] = 0.0
        new_pmf = np.clip(new_pmf, 0.0, None)
        total = new_pmf.sum()
        if total <= 0:
            raise ValueError("transform produced an all-zero pmf")
        return SizeDistribution(
            self.n, new_pmf / total, name=name or f"{self.name}*"
        )

    def __repr__(self) -> str:
        return (
            f"SizeDistribution(name={self.name!r}, n={self.n}, "
            f"H(c)={self.condensed_entropy():.3f}b)"
        )
