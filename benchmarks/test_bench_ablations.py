"""Ablation benches for the simulator's design choices.

These are not paper artefacts; they quantify the library's own knobs:

* probe repetitions in the noisy binary search (Willard-style majority
  voting) - reliability vs rounds;
* ``support_only`` cycling for sorted probing - the expected-time cost of
  probing ranges the prediction ruled out;
* one-shot vs cycling code search;
* the fast binomial uniform path vs the per-player engine (same
  distribution of outcomes, very different cost).
"""

import numpy as np

from repro.analysis.montecarlo import estimate_uniform_rounds
from repro.channel.channel import (
    with_collision_detection,
    without_collision_detection,
)
from repro.channel.simulator import run_players, run_uniform
from repro.core.predictions import Prediction
from repro.core.uniform import ProbabilitySchedule, ScheduleProtocol
from repro.infotheory.distributions import SizeDistribution
from repro.protocols.code_search import CodeSearchProtocol
from repro.protocols.sorted_probing import SortedProbingProtocol
from repro.protocols.willard import WillardProtocol

N = 2**16
TRIALS = 600


class _UniformAsPlayers:
    """Per-player wrapper of a uniform schedule, for the engine ablation."""

    from repro.core.protocol import PlayerProtocol, PlayerSession

    class _Session(PlayerSession):
        def __init__(self, probability, rng):
            self._probability = probability
            self._rng = rng

        def decide(self):
            return bool(self._rng.random() < self._probability)

        def observe(self, observation, *, transmitted):
            del observation, transmitted

    class _Protocol(PlayerProtocol):
        name = "uniform-as-players"
        requires_collision_detection = False
        advice_bits = 0

        def __init__(self, probability):
            self._probability = probability

        def session(self, player_id, n, advice, rng=None):
            return _UniformAsPlayers._Session(self._probability, rng)


def test_willard_repetitions(benchmark):
    """Reliability/rounds trade-off of the majority-vote repetition knob."""

    def sweep():
        rng = np.random.default_rng(5)
        channel = with_collision_detection()
        rows = {}
        for repetitions in (1, 3, 5):
            protocol = WillardProtocol(N, repetitions=repetitions)
            estimate = estimate_uniform_rounds(
                protocol, 1000, rng, channel=channel,
                trials=TRIALS, max_rounds=500,
            )
            rows[repetitions] = estimate.rounds.mean
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1, warmup_rounds=0)
    print(f"\nwillard mean rounds by repetitions: {rows}")
    # More repetitions cost more rounds per comparison but fail less; at
    # this scale the totals stay within a small factor.
    assert rows[1] <= rows[5] * 3


def test_sorted_probing_support_only(benchmark):
    """Expected-time cost of probing zero-probability ranges."""

    def sweep():
        rng = np.random.default_rng(6)
        channel = without_collision_detection()
        truth = SizeDistribution.range_uniform_subset(N, [8])
        full = estimate_uniform_rounds(
            SortedProbingProtocol(Prediction(truth), one_shot=False),
            truth, rng, channel=channel, trials=TRIALS, max_rounds=4000,
        ).rounds.mean
        restricted = estimate_uniform_rounds(
            SortedProbingProtocol(
                Prediction(truth), one_shot=False, support_only=True
            ),
            truth, rng, channel=channel, trials=TRIALS, max_rounds=4000,
        ).rounds.mean
        return full, restricted

    full, restricted = benchmark.pedantic(
        sweep, rounds=1, iterations=1, warmup_rounds=0
    )
    print(f"\nsorted-probing cycling: full={full:.2f} support-only={restricted:.2f}")
    assert restricted < full


def test_code_search_one_shot_vs_cycling(benchmark):
    """Cycling restarts recover the one-shot failure mass."""

    def sweep():
        rng = np.random.default_rng(7)
        channel = with_collision_detection()
        truth = SizeDistribution.range_uniform_subset(N, [2, 9, 14])
        one_shot = estimate_uniform_rounds(
            CodeSearchProtocol(Prediction(truth), one_shot=True),
            truth, rng, channel=channel, trials=TRIALS, max_rounds=400,
        )
        cycling = estimate_uniform_rounds(
            CodeSearchProtocol(Prediction(truth), one_shot=False),
            truth, rng, channel=channel, trials=TRIALS, max_rounds=4000,
        )
        return one_shot.success.rate, cycling.success.rate

    one_shot_rate, cycling_rate = benchmark.pedantic(
        sweep, rounds=1, iterations=1, warmup_rounds=0
    )
    print(
        f"\ncode-search success: one-shot={one_shot_rate:.3f} "
        f"cycling={cycling_rate:.3f}"
    )
    assert cycling_rate >= one_shot_rate
    assert cycling_rate >= 0.99


def test_uniform_fast_path_vs_player_engine(benchmark):
    """The binomial path is an exact, much cheaper channel simulation."""
    k, p = 200, 1.0 / 200.0

    def run_both():
        rng = np.random.default_rng(8)
        channel = without_collision_detection()
        uniform_protocol = ScheduleProtocol(
            ProbabilitySchedule([p]), cycle=True
        )
        uniform_rounds = [
            run_uniform(
                uniform_protocol, k, rng, channel=channel, max_rounds=500
            ).rounds
            for _ in range(300)
        ]
        player_protocol = _UniformAsPlayers._Protocol(p)
        player_rounds = [
            run_players(
                player_protocol,
                frozenset(range(k)),
                N,
                rng,
                channel=channel,
                max_rounds=500,
            ).rounds
            for _ in range(100)
        ]
        return float(np.mean(uniform_rounds)), float(np.mean(player_rounds))

    uniform_mean, player_mean = benchmark.pedantic(
        run_both, rounds=1, iterations=1, warmup_rounds=0
    )
    print(
        f"\nmean rounds: binomial path={uniform_mean:.2f} "
        f"player engine={player_mean:.2f}"
    )
    # Identical channel semantics => matching means (within Monte Carlo
    # noise; both ~ e rounds for kp = 1).
    assert abs(uniform_mean - player_mean) <= 0.25 * max(uniform_mean, player_mean)
