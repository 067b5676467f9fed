"""Tests for the streaming arrival processes and their registry."""

import numpy as np
import pytest

from repro.channel.arrivals import MIN_COUNT, MarkovBurstArrivals, TraceArrivals
from repro.opensys import (
    ARRIVAL_FAMILIES,
    ClampedArrivalSizeSource,
    PoissonArrivals,
    ThinnedArrivals,
    ZipfHotspotArrivals,
    arrival_process_from_dict,
)


class TestPoisson:
    def test_mean_matches_rate(self):
        process = PoissonArrivals(0.5)
        draws = process.sample_rounds(np.random.default_rng(0), 50_000)
        assert draws.min() >= 0
        assert draws.mean() == pytest.approx(0.5, rel=0.05)
        assert process.offered_load == 0.5

    def test_rejects_bad_rate(self):
        for rate in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                PoissonArrivals(rate)


class TestZipfHotspot:
    def test_offered_load_matches_empirical_mean(self):
        process = ZipfHotspotArrivals(0.3, alpha=1.2, max_batch=16)
        draws = process.sample_rounds(np.random.default_rng(1), 100_000)
        assert draws.mean() == pytest.approx(process.offered_load, rel=0.05)

    def test_large_alpha_degenerates_to_singletons(self):
        process = ZipfHotspotArrivals(0.2, alpha=50.0, max_batch=8)
        assert process.offered_load == pytest.approx(0.2, rel=1e-6)

    def test_batches_exceed_one_when_tail_is_heavy(self):
        process = ZipfHotspotArrivals(0.2, alpha=0.5, max_batch=32)
        draws = process.sample_rounds(np.random.default_rng(2), 20_000)
        assert (draws > 1).any()
        assert process.offered_load > 0.2

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ZipfHotspotArrivals(0.1, alpha=-1.0)
        with pytest.raises(ValueError):
            ZipfHotspotArrivals(0.1, max_batch=0)


class TestThinned:
    def test_thinning_scales_the_trace(self):
        trace = TraceArrivals([10, 20, 30])
        process = ThinnedArrivals(trace, thin=0.5)
        assert process.offered_load == pytest.approx(10.0)
        draws = process.sample_rounds(np.random.default_rng(3), 3)
        assert (draws <= np.array([10, 20, 30])).all()

    def test_thin_one_preserves_counts(self):
        trace = TraceArrivals([4, 7])
        process = ThinnedArrivals(trace, thin=1.0)
        assert (
            process.sample_rounds(np.random.default_rng(0), 2) == [4, 7]
        ).all()

    def test_reset_rewinds_the_wrapped_stream(self):
        process = ThinnedArrivals(TraceArrivals([5, 6, 7]), thin=1.0)
        rng = np.random.default_rng(0)
        first = process.sample_rounds(rng, 2)
        process.reset()
        again = process.sample_rounds(rng, 2)
        assert (first == [5, 6]).all()
        assert (again == [5, 6]).all()

    def test_clone_gets_independent_position(self):
        process = ThinnedArrivals(TraceArrivals([1, 2, 3]), thin=1.0)
        rng = np.random.default_rng(0)
        process.sample_rounds(rng, 2)  # advance the original
        clone = process.clone()
        assert clone is not process and clone.wrapped is not process.wrapped
        assert (clone.sample_rounds(rng, 3) == [1, 2, 3]).all()
        # The clone drew from its own cursor; the original's did not move.
        assert (process.sample_rounds(rng, 2) == [3, 1]).all()

    def test_markov_stationary_offered_load(self):
        burst = MarkovBurstArrivals(
            100,
            calm_rate=0.05,
            burst_rate=0.4,
            burst_arrival=0.1,
            burst_departure=0.3,
        )
        process = ThinnedArrivals(burst, thin=0.1)
        # Stationary burst share 0.1/0.4 = 0.25 -> rate mix 0.1375/device.
        assert process.offered_load == pytest.approx(
            100 * (0.25 * 0.4 + 0.75 * 0.05) * 0.1
        )

    def test_rejects_bad_thin_and_wrapped(self):
        with pytest.raises(ValueError):
            ThinnedArrivals(TraceArrivals([1]), thin=0.0)
        with pytest.raises(TypeError):
            ThinnedArrivals(object(), thin=0.5)


class TestStatelessClone:
    """A process ``sample_rounds`` never mutates is its own clone."""

    @pytest.mark.parametrize(
        "process",
        [PoissonArrivals(0.4), ZipfHotspotArrivals(0.3, alpha=1.2, max_batch=16)],
        ids=["poisson", "zipf-hotspot"],
    )
    def test_clone_is_the_process_itself(self, process):
        before = vars(process).copy()
        assert process.clone() is process
        process.sample_rounds(np.random.default_rng(0), 64)
        assert vars(process).keys() == before.keys()
        for name, value in before.items():
            assert np.array_equal(vars(process)[name], value), name


class TestClampedSizeSource:
    def test_clamps_into_contender_range(self):
        source = ClampedArrivalSizeSource(PoissonArrivals(0.01), n=8)
        draws = source.sample_many(np.random.default_rng(0), 1000)
        assert draws.min() >= MIN_COUNT and draws.max() <= 8
        assert MIN_COUNT <= source.sample(np.random.default_rng(1)) <= 8

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            ClampedArrivalSizeSource(PoissonArrivals(1.0), n=1)


class TestRegistry:
    def test_families_build_and_sample(self):
        specs = {
            "poisson": {"rate": 0.2},
            "zipf-hotspot": {"rate": 0.1, "alpha": 1.0, "max_batch": 4},
            "bursty": {"devices": 50, "thin": 0.2},
            "trace": {"counts": [3, 1, 4], "thin": 1.0},
        }
        assert set(specs) == set(ARRIVAL_FAMILIES)
        for family, params in specs.items():
            process = arrival_process_from_dict({"family": family, **params})
            draws = process.sample_rounds(np.random.default_rng(0), 16)
            assert draws.shape == (16,) and draws.min() >= 0

    def test_unknown_family_and_parameters_fail_fast(self):
        with pytest.raises(ValueError, match="unknown arrival family"):
            arrival_process_from_dict({"family": "fractal"})
        with pytest.raises(ValueError, match="requires parameter"):
            arrival_process_from_dict({"family": "poisson"})
        with pytest.raises(ValueError, match="unknown parameter"):
            arrival_process_from_dict({"family": "poisson", "rate": 1, "x": 2})
