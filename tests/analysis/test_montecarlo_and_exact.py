"""Tests for the Monte Carlo estimators and the exact solvers.

The key cross-validation: the exact solve-time distribution for oblivious
schedules must agree with the simulation engine's statistics.
"""

import numpy as np
import pytest

from repro.analysis.exact import (
    cd_expected_rounds,
    expected_rounds_mixture,
    round_success_probabilities,
    schedule_solve_time,
    schedule_success_within,
)
from repro.analysis.montecarlo import (
    estimate_player_rounds,
    estimate_success_within,
    estimate_uniform_rounds,
)
from repro.channel.network import RandomAdversary
from repro.core.advice import MinIdPrefixAdvice
from repro.core.uniform import ProbabilitySchedule, ScheduleProtocol
from repro.infotheory.distributions import SizeDistribution
from repro.protocols.advice_deterministic import DeterministicScanProtocol
from repro.protocols.adapters import as_history_policy
from repro.protocols.decay import DecayProtocol
from repro.protocols.willard import WillardProtocol


class TestRoundSuccessProbabilities:
    def test_formula(self):
        q = round_success_probabilities([0.5, 0.25], 2)
        assert q[0] == pytest.approx(2 * 0.5 * 0.5)
        assert q[1] == pytest.approx(2 * 0.25 * 0.75)


class TestScheduleSolveTime:
    def test_pmf_sums_with_residual(self):
        dist = schedule_solve_time([0.5, 0.25, 0.1], 4)
        assert dist.pmf.sum() + dist.residual == pytest.approx(1.0)

    def test_constant_schedule_is_geometric(self):
        k, p = 8, 0.1
        rate = k * p * (1 - p) ** (k - 1)
        dist = schedule_solve_time([p], k, horizon=2000, cycle=True)
        assert dist.expected_rounds_conditional() == pytest.approx(
            1.0 / rate, rel=1e-3
        )

    def test_success_within_monotone(self):
        dist = schedule_solve_time([0.3] * 20, 5)
        values = [dist.success_within(budget) for budget in range(0, 21)]
        assert values == sorted(values)

    def test_cycle_requires_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            schedule_solve_time([0.5], 2, cycle=True)

    def test_success_within_helper(self):
        p = schedule_success_within([0.5], 2, budget=1)
        assert p == pytest.approx(0.5)

    def test_penalty_expectation(self):
        dist = schedule_solve_time([1e-12], 5)
        assert dist.expected_rounds_with_penalty(100.0) == pytest.approx(
            100.0, rel=1e-6
        )

    def test_matches_monte_carlo(self, rng, nocd_channel):
        """Exact solver vs simulation on the same decay schedule."""
        n, k = 2**8, 37
        protocol = DecayProtocol(n)
        exact = schedule_solve_time(
            protocol.schedule, k, horizon=400, cycle=True
        )
        estimate = estimate_uniform_rounds(
            protocol, k, rng, channel=nocd_channel, trials=4000, max_rounds=400
        )
        assert estimate.rounds.mean == pytest.approx(
            exact.expected_rounds_conditional(), rel=0.06
        )

    def test_mixture_expectation(self):
        per_size = {
            2: schedule_solve_time([0.5], 2, horizon=500, cycle=True),
            8: schedule_solve_time([0.125], 8, horizon=500, cycle=True),
        }
        mixed = expected_rounds_mixture(per_size, {2: 0.5, 8: 0.5})
        expected = 0.5 * per_size[2].expected_rounds_conditional() + (
            0.5 * per_size[8].expected_rounds_conditional()
        )
        assert mixed == pytest.approx(expected)

    def test_mixture_missing_size_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            expected_rounds_mixture({}, {4: 1.0})


class TestCdExpectedRounds:
    def test_matches_monte_carlo_willard(self, rng, cd_channel):
        n, k = 2**8, 37
        protocol = WillardProtocol(n, repetitions=1)
        policy = as_history_policy(protocol)
        contribution, mass = cd_expected_rounds(
            policy, k, max_depth=18, prune_mass=1e-7
        )
        estimate = estimate_uniform_rounds(
            protocol, k, rng, channel=cd_channel, trials=4000, max_rounds=18
        )
        assert mass > 0.9
        assert estimate.rounds.mean == pytest.approx(
            contribution / mass, rel=0.1
        )

    def test_mass_bounded_by_one(self):
        policy = as_history_policy(WillardProtocol(2**6, repetitions=1))
        _, mass = cd_expected_rounds(policy, 10, max_depth=14)
        assert 0.0 < mass <= 1.0 + 1e-9

    def test_node_budget_enforced(self):
        policy = as_history_policy(WillardProtocol(2**8, repetitions=1))
        with pytest.raises(ValueError, match="nodes"):
            cd_expected_rounds(
                policy, 37, max_depth=40, prune_mass=1e-30, max_nodes=10_000
            )

    def test_rejects_bad_args(self):
        policy = as_history_policy(WillardProtocol(2**6))
        with pytest.raises(ValueError):
            cd_expected_rounds(policy, 0, max_depth=5)
        with pytest.raises(ValueError):
            cd_expected_rounds(policy, 2, max_depth=0)
        with pytest.raises(ValueError):
            cd_expected_rounds(policy, 2, max_depth=5, prune_mass=0.0)


class TestMonteCarloHarness:
    def test_size_distribution_source(self, rng, nocd_channel):
        d = SizeDistribution.range_uniform_subset(2**8, [2, 5])
        estimate = estimate_uniform_rounds(
            DecayProtocol(2**8),
            d,
            rng,
            channel=nocd_channel,
            trials=500,
            max_rounds=500,
        )
        assert estimate.success.rate == 1.0
        assert estimate.rounds.mean > 1.0

    def test_callable_source(self, rng, nocd_channel):
        estimate = estimate_uniform_rounds(
            DecayProtocol(2**8),
            lambda generator: 10,
            rng,
            channel=nocd_channel,
            trials=200,
            max_rounds=500,
        )
        assert estimate.success.rate == 1.0

    def test_factory_protocol(self, rng, nocd_channel):
        estimate = estimate_uniform_rounds(
            lambda: DecayProtocol(2**8),
            16,
            rng,
            channel=nocd_channel,
            trials=200,
            max_rounds=500,
        )
        assert estimate.success.rate == 1.0

    @pytest.mark.parametrize("batch", [False, True])
    def test_universal_failure_reports_no_samples(
        self, rng, nocd_channel, batch
    ):
        """No successes => an explicit empty rounds summary, not a
        fabricated sample pinned at the budget."""
        protocol = ScheduleProtocol(ProbabilitySchedule([1e-15]), cycle=True)
        estimate = estimate_uniform_rounds(
            protocol, 5, rng, channel=nocd_channel, trials=50, max_rounds=10,
            batch=batch,
        )
        assert estimate.success.rate == 0.0
        assert not estimate.any_successes
        assert estimate.rounds.count == 0
        assert estimate.rounds.mean != estimate.rounds.mean  # NaN

    def test_success_within_tracks_exact(self, rng, nocd_channel):
        n, k, budget = 2**8, 37, 8
        protocol = DecayProtocol(n)
        exact = schedule_success_within(
            protocol.schedule.cycled(budget), k, budget
        )
        estimate = estimate_success_within(
            protocol, k, rng, channel=nocd_channel, trials=4000,
            budget_rounds=budget,
        )
        assert estimate.lower <= exact <= estimate.upper

    def test_player_harness(self, rng, nocd_channel):
        n = 2**6
        adversary = RandomAdversary()
        estimate = estimate_player_rounds(
            DeterministicScanProtocol(2),
            lambda generator: adversary.checked_select(n, 4, generator),
            n,
            rng,
            channel=nocd_channel,
            advice_function=MinIdPrefixAdvice(2),
            trials=100,
            max_rounds=2**6,
        )
        assert estimate.success.rate == 1.0
        assert estimate.rounds.maximum <= 16

    def test_trials_validation(self, rng, nocd_channel):
        with pytest.raises(ValueError):
            estimate_uniform_rounds(
                DecayProtocol(16), 4, rng, channel=nocd_channel,
                trials=0, max_rounds=10,
            )

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize(
        "size", [np.int64(5), np.int32(5), np.uint8(5)], ids=type
    )
    def test_numpy_integer_sizes_run_as_fixed_sizes(
        self, nocd_channel, batch, size
    ):
        def estimate(k):
            return estimate_uniform_rounds(
                DecayProtocol(64), k, np.random.default_rng(11),
                channel=nocd_channel, trials=60, max_rounds=40, batch=batch,
            )

        assert estimate(size) == estimate(5)

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize(
        "size,complaint",
        [
            (True, "got bool"),
            (False, "got bool"),
            (5.0, "got float"),
            ("5", "got str"),
            (None, "got NoneType"),
            (np.int64(0), "fixed size must be >= 1, got 0"),
        ],
    )
    def test_bad_size_sources_are_refused(
        self, rng, nocd_channel, batch, size, complaint
    ):
        with pytest.raises(ValueError, match=complaint):
            estimate_uniform_rounds(
                DecayProtocol(64), size, rng, channel=nocd_channel,
                trials=10, max_rounds=10, batch=batch,
            )
