"""Unit tests for repro.infotheory.distributions."""

import math

import numpy as np
import pytest

from repro.infotheory.condense import range_of_size
from repro.infotheory.distributions import SizeDistribution


class TestConstruction:
    def test_point(self):
        d = SizeDistribution.point(100, 42)
        assert d.probability(42) == 1.0
        assert d.support() == [42]

    def test_point_out_of_support(self):
        with pytest.raises(ValueError):
            SizeDistribution.point(100, 1)
        with pytest.raises(ValueError):
            SizeDistribution.point(100, 101)

    def test_from_weights_normalises(self):
        d = SizeDistribution.from_weights(10, {2: 3.0, 4: 1.0})
        assert d.probability(2) == pytest.approx(0.75)
        assert d.probability(4) == pytest.approx(0.25)

    def test_from_weights_rejects_empty(self):
        with pytest.raises(ValueError):
            SizeDistribution.from_weights(10, {2: 0.0})

    def test_uniform_support(self):
        d = SizeDistribution.uniform(10)
        assert d.support() == list(range(2, 11))
        assert d.probability(5) == pytest.approx(1 / 9)

    def test_range_uniform_entropy_is_loglog(self):
        d = SizeDistribution.range_uniform(2**16)
        assert d.condensed_entropy() == pytest.approx(4.0)

    def test_range_uniform_subset_exact_entropy(self):
        for m in (1, 2, 4, 8):
            d = SizeDistribution.range_uniform_subset(2**16, range(1, m + 1))
            assert d.condensed_entropy() == pytest.approx(
                math.log2(m), abs=1e-9
            )

    def test_range_uniform_subset_uniform_spread(self):
        d = SizeDistribution.range_uniform_subset(
            2**8, [3, 5], spread="uniform"
        )
        condensed = d.condense()
        assert condensed.probability(3) == pytest.approx(0.5)
        assert condensed.probability(5) == pytest.approx(0.5)
        # Mass is spread across several sizes within each range.
        assert len(d.support()) > 2

    def test_range_uniform_subset_rejects_bad_spread(self):
        with pytest.raises(ValueError, match="spread"):
            SizeDistribution.range_uniform_subset(256, [1], spread="blob")

    def test_range_uniform_subset_rejects_out_of_board(self):
        with pytest.raises(ValueError):
            SizeDistribution.range_uniform_subset(256, [9])

    @pytest.mark.parametrize(
        "ranges", [[1.0, 4], [2, 3.5], [True, 4]], ids=["float", "frac", "bool"]
    )
    def test_range_uniform_subset_rejects_non_integer_ranges(self, ranges):
        """A float index used to reach the pmf as a float size (an
        IndexError for the point spread); now it is refused by name."""
        for spread in ("point", "uniform"):
            with pytest.raises(ValueError, match="not an integer"):
                SizeDistribution.range_uniform_subset(
                    256, ranges, spread=spread
                )

    def test_range_uniform_subset_accepts_numpy_integers(self):
        d = SizeDistribution.range_uniform_subset(256, np.asarray([2, 5]))
        assert d.condense().probability(5) == pytest.approx(0.5)

    def test_interpolated_entropy_hits_target(self):
        for target in (0.0, 0.7, 1.5, 2.9):
            d = SizeDistribution.interpolated_entropy(2**16, target)
            assert d.condensed_entropy() == pytest.approx(target, abs=1e-3)

    def test_interpolated_entropy_rejects_over_max(self):
        with pytest.raises(ValueError):
            SizeDistribution.interpolated_entropy(2**16, 4.5)

    def test_geometric_concentrates_small(self):
        d = SizeDistribution.geometric(1000, ratio=0.5)
        assert d.probability(2) > d.probability(3) > d.probability(10)

    def test_geometric_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            SizeDistribution.geometric(100, ratio=1.0)

    def test_zipf_monotone(self):
        d = SizeDistribution.zipf(1000, exponent=1.2)
        assert d.probability(2) > d.probability(20) > d.probability(200)

    def test_bimodal_two_modes(self):
        d = SizeDistribution.bimodal(2**12, low_size=8, high_size=2000)
        assert d.probability(8) == pytest.approx(0.5)
        assert d.probability(2000) == pytest.approx(0.5)

    def test_bimodal_jitter_spreads_ranges(self):
        d = SizeDistribution.bimodal(
            2**12, low_size=8, high_size=2000, jitter_ranges=1
        )
        condensed = d.condense()
        assert len(condensed.support()) >= 4

    def test_pliam_shape(self):
        d = SizeDistribution.pliam(2**16, light_ranges=4, heavy_mass=0.5)
        condensed = d.condense()
        assert condensed.probability(1) == pytest.approx(0.5)
        for i in (2, 3, 4, 5):
            assert condensed.probability(i) == pytest.approx(0.125)

    def test_pliam_rejects_too_many_light(self):
        with pytest.raises(ValueError):
            SizeDistribution.pliam(16, light_ranges=4)

    def test_mixture(self):
        a = SizeDistribution.point(100, 10)
        b = SizeDistribution.point(100, 50)
        mix = SizeDistribution.mixture([a, b], [1.0, 3.0])
        assert mix.probability(10) == pytest.approx(0.25)
        assert mix.probability(50) == pytest.approx(0.75)

    def test_mixture_rejects_mismatched_n(self):
        a = SizeDistribution.point(100, 10)
        b = SizeDistribution.point(200, 50)
        with pytest.raises(ValueError, match="same n"):
            SizeDistribution.mixture([a, b], [1.0, 1.0])


class TestQueriesAndSampling:
    def test_mean(self):
        d = SizeDistribution.from_weights(10, {2: 1.0, 4: 1.0})
        assert d.mean() == pytest.approx(3.0)

    def test_entropy_of_full_distribution(self):
        d = SizeDistribution.from_weights(10, {2: 1.0, 4: 1.0})
        assert d.entropy() == pytest.approx(1.0)

    def test_condense_caches(self):
        d = SizeDistribution.uniform(100)
        assert d.condense() is d.condense()

    def test_sample_within_support(self, rng: np.random.Generator):
        d = SizeDistribution.range_uniform_subset(2**10, [2, 5, 8])
        samples = d.sample_many(rng, 500)
        assert set(np.unique(samples)) <= set(d.support())

    def test_sample_frequencies_match_pmf(self, rng: np.random.Generator):
        d = SizeDistribution.from_weights(10, {2: 0.8, 9: 0.2})
        samples = d.sample_many(rng, 20_000)
        freq2 = float(np.mean(samples == 2))
        assert freq2 == pytest.approx(0.8, abs=0.02)

    def test_sample_condensed_ranges(self, rng: np.random.Generator):
        d = SizeDistribution.range_uniform_subset(2**10, [3, 7])
        ranges = {range_of_size(int(k)) for k in d.sample_many(rng, 300)}
        assert ranges == {3, 7}

    def test_guesswork_matches_condensed(self):
        d = SizeDistribution.pliam(2**10, 3, heavy_mass=0.7)
        # Heavy first: 1*0.7 + (2+3+4)*0.1 each.
        assert d.guesswork() == pytest.approx(0.7 + 0.1 * (2 + 3 + 4))

    def test_map_pmf_renormalises(self):
        d = SizeDistribution.uniform(10)
        doubled = d.map_pmf(lambda pmf: pmf * 2.0)
        assert doubled.probability(5) == pytest.approx(d.probability(5))

    def test_map_pmf_zeroes_low_sizes(self):
        d = SizeDistribution.uniform(10)

        def leak(pmf):
            pmf[0] = 1.0
            return pmf

        repaired = d.map_pmf(leak)
        assert repaired.probability(0) == 0.0

    def test_repr_contains_entropy(self):
        d = SizeDistribution.range_uniform(2**16)
        assert "H(c)=4.000b" in repr(d)
