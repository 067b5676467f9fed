"""Tests for the open-loop driver: routing, bit-identity, and edge cases.

The load-bearing property is **bit-identity**: the vectorized engines and
the scalar per-trial oracle consume the same per-trial seed streams and
must produce byte-for-byte equal latency stores - under every batchable
channel model, not just the faithful channel.
"""

import numpy as np
import pytest

from repro.analysis.montecarlo import route
from repro.channel import (
    CrashModel,
    NoisyChannel,
    ObliviousJammer,
    ReactiveJammer,
    with_collision_detection,
    without_collision_detection,
)
from repro.opensys import (
    ENGINE_OPEN_HISTORY,
    ENGINE_OPEN_SCALAR,
    ENGINE_OPEN_SCHEDULE,
    ArrivalProcess,
    ExponentialBackoffPolicy,
    GiveUpPolicy,
    HardCapacityPolicy,
    ImmediateRetryPolicy,
    OccupancySheddingPolicy,
    PoissonArrivals,
    TokenBucketPolicy,
    ZipfHotspotArrivals,
    run_open,
)
from repro.core.protocol import ProtocolError
from repro.protocols.decay import DecayProtocol
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.jiang_zheng import JiangZhengProtocol
from repro.protocols.willard import WillardProtocol

N = 128


class SilentArrivals(ArrivalProcess):
    """A degenerate stream that never injects anything."""

    name = "silent"

    def sample_rounds(self, rng, rounds):
        return np.zeros(rounds, dtype=np.int64)

    @property
    def offered_load(self):
        return 0.0


class ScriptedArrivals(ArrivalProcess):
    """Returns ``script(rounds, trial)``; clone ``t`` is named ``name#t``.

    ``run_open`` clones the process once per trial, in trial order, so
    each clone knows its trial and an error names the trial at fault.
    """

    def __init__(self, name, script):
        self.name = name
        self._script = script
        self._trial = 0
        self._clones = 0

    def clone(self):
        fresh = super().clone()
        fresh._trial = self._clones
        fresh.name = f"{self.name}#{self._clones}"
        self._clones += 1
        return fresh

    def sample_rounds(self, rng, rounds):
        return self._script(rounds, self._trial)

    @property
    def offered_load(self):
        return 0.0


#: Malformed arrival counts, each with the message naming trial 0's (or,
#: for the negative counts, trial 1's) process.
BAD_COUNTS = [
    (
        "shape-one",
        lambda rounds, trial: np.zeros(1, dtype=np.int64),
        r"'shape-one#0' returned shape \(1,\), expected \(16,\)",
    ),
    (
        "scalar",
        lambda rounds, trial: np.int64(1),
        r"'scalar#0' returned shape \(\), expected \(16,\)",
    ),
    (
        "float",
        lambda rounds, trial: np.resize([2.7, 0.4], rounds),
        r"'float#0' returned float64 counts, expected integers",
    ),
    (
        "negative",
        lambda rounds, trial: np.full(rounds, -min(trial, 1), dtype=np.int64),
        r"'negative#1' returned negative counts",
    ),
]


def run_pair(protocol, channel, *, arrivals=None, **kwargs):
    """(vectorized, scalar) results for one workload, same seed streams."""
    arrivals = arrivals or PoissonArrivals(0.15)
    common = dict(channel=channel, trials=12, rounds=256, warmup=32, seed=7)
    common.update(kwargs)
    vectorized = run_open(protocol, arrivals, **common)
    scalar = run_open(protocol, arrivals, batch=False, **common)
    return vectorized, scalar


class TestEngineSelection:
    def test_schedule_protocol_routes_to_open_schedule(self):
        assert (
            route(DecayProtocol(N), open_system=True).engine
            == ENGINE_OPEN_SCHEDULE
        )

    def test_history_protocol_routes_to_open_history(self):
        assert (
            route(WillardProtocol(N), open_system=True).engine
            == ENGINE_OPEN_HISTORY
        )

    def test_batch_false_forces_the_scalar_oracle(self):
        assert (
            route(DecayProtocol(N), False, open_system=True).engine
            == ENGINE_OPEN_SCALAR
        )

    def test_non_batchable_crash_model_is_rejected_everywhere(self):
        rejoining = CrashModel(0.1, rejoin_after=3)
        for batch in (None, True, False):
            with pytest.raises(ValueError, match="rejoin"):
                route(DecayProtocol(N), batch, model=rejoining, open_system=True)


class TestBitIdentity:
    @pytest.mark.parametrize(
        "name,protocol,channel",
        [
            ("decay-nocd", DecayProtocol(N), without_collision_detection()),
            ("willard-cd", WillardProtocol(N), with_collision_detection()),
            (
                "fixedp-nocd",
                FixedProbabilityProtocol(12),
                without_collision_detection(),
            ),
            (
                "decay-noise",
                DecayProtocol(N),
                without_collision_detection(
                    NoisyChannel(
                        silence_to_collision=0.08,
                        collision_to_silence=0.05,
                        success_erasure=0.1,
                    )
                ),
            ),
            (
                "willard-jam",
                WillardProtocol(N),
                with_collision_detection(ObliviousJammer(budget=40, period=3)),
            ),
            (
                "willard-reactive",
                WillardProtocol(N),
                with_collision_detection(
                    ReactiveJammer(budget=30, quiet_streak=2)
                ),
            ),
            (
                "decay-crash",
                DecayProtocol(N),
                without_collision_detection(
                    CrashModel(0.05, rejoin_after=0)
                ),
            ),
        ],
    )
    def test_vectorized_matches_scalar_store(self, name, protocol, channel):
        vectorized, scalar = run_pair(protocol, channel)
        assert scalar.engine == ENGINE_OPEN_SCALAR
        assert vectorized.engine != ENGINE_OPEN_SCALAR
        assert vectorized.store == scalar.store, name

    def test_identity_holds_with_timeout_and_bursty_arrivals(self):
        vectorized, scalar = run_pair(
            DecayProtocol(N),
            without_collision_detection(),
            arrivals=ZipfHotspotArrivals(0.12, alpha=1.0, max_batch=6),
            timeout=40,
            capacity=32,
        )
        assert vectorized.store == scalar.store
        assert vectorized.store.timed_out == scalar.store.timed_out


#: Retry x admission combinations that exercise every policy code path:
#: jittered backoff (retry draw column), shedding (admission draw
#: column), token-bucket state, immediate-rejoin storms, and budgets.
POLICY_COMBOS = [
    (
        "backoff-jitter+shed",
        lambda: ExponentialBackoffPolicy(base=2, cap=32, jitter=4, budget=5),
        lambda: OccupancySheddingPolicy(threshold=0.4, power=2.0),
    ),
    (
        "immediate+token-bucket",
        lambda: ImmediateRetryPolicy(),
        lambda: TokenBucketPolicy(rate=0.35, burst=3.0),
    ),
    (
        "backoff-plain+capacity",
        lambda: ExponentialBackoffPolicy(base=1, cap=16, jitter=0, budget=2),
        lambda: HardCapacityPolicy(),
    ),
    (
        "give-up+shed",
        lambda: GiveUpPolicy(),
        lambda: OccupancySheddingPolicy(threshold=0.25),
    ),
]


class TestPolicyBitIdentity:
    """The acceptance bar: the lifecycle is engine-neutral, bit for bit."""

    @pytest.mark.parametrize(
        "name,retry,admission", POLICY_COMBOS, ids=[c[0] for c in POLICY_COMBOS]
    )
    def test_schedule_engine_matches_scalar(self, name, retry, admission):
        vectorized, scalar = run_pair(
            DecayProtocol(N),
            without_collision_detection(),
            arrivals=PoissonArrivals(0.3),
            capacity=12,
            timeout=24,
            retry=retry(),
            admission=admission(),
        )
        assert vectorized.engine == ENGINE_OPEN_SCHEDULE
        assert vectorized.store == scalar.store, name

    @pytest.mark.parametrize(
        "name,retry,admission", POLICY_COMBOS, ids=[c[0] for c in POLICY_COMBOS]
    )
    def test_history_engine_matches_scalar(self, name, retry, admission):
        vectorized, scalar = run_pair(
            WillardProtocol(N),
            with_collision_detection(),
            arrivals=PoissonArrivals(0.3),
            capacity=12,
            timeout=30,
            retry=retry(),
            admission=admission(),
        )
        assert vectorized.engine == ENGINE_OPEN_HISTORY
        assert vectorized.store == scalar.store, name

    def test_identity_with_policies_and_fault_model(self):
        """All five uniform columns live at once: band, winner, fault,
        admission, retry."""
        vectorized, scalar = run_pair(
            DecayProtocol(N),
            without_collision_detection(
                NoisyChannel(
                    silence_to_collision=0.08,
                    collision_to_silence=0.05,
                    success_erasure=0.1,
                )
            ),
            arrivals=PoissonArrivals(0.3),
            capacity=12,
            timeout=24,
            retry=ExponentialBackoffPolicy(base=2, cap=16, jitter=3),
            admission=OccupancySheddingPolicy(threshold=0.3),
        )
        assert vectorized.store == scalar.store
        assert vectorized.store.retried > 0


#: Non-cycling schedules: a trial whose epoch outlives the schedule
#: restarts it from the top, as the oracle's fresh session does.
ONE_SHOT_SCHEDULES = [
    ("decay", lambda: DecayProtocol(N, cycle=False)),
    ("decay-k1", lambda: DecayProtocol(N, cycle=False, handle_k1=True)),
    ("jiang-zheng", lambda: JiangZhengProtocol(N, cycle=False)),
]


class TestOneShotSchedules:
    """One-shot schedules on ``open-schedule`` equal the oracle's store."""

    @pytest.mark.parametrize(
        "name,protocol", ONE_SHOT_SCHEDULES, ids=[c[0] for c in ONE_SHOT_SCHEDULES]
    )
    def test_default_lifecycle(self, name, protocol):
        vectorized, scalar = run_pair(
            protocol(), without_collision_detection(), arrivals=PoissonArrivals(0.3)
        )
        assert vectorized.engine == ENGINE_OPEN_SCHEDULE
        assert vectorized.store == scalar.store, name

    @pytest.mark.parametrize(
        "name,protocol", ONE_SHOT_SCHEDULES, ids=[c[0] for c in ONE_SHOT_SCHEDULES]
    )
    def test_backoff_shed_and_timeout(self, name, protocol):
        vectorized, scalar = run_pair(
            protocol(),
            without_collision_detection(),
            arrivals=PoissonArrivals(0.3),
            capacity=12,
            timeout=24,
            retry=ExponentialBackoffPolicy(base=2, cap=32, jitter=4, budget=5),
            admission=OccupancySheddingPolicy(threshold=0.4, power=2.0),
        )
        assert vectorized.engine == ENGINE_OPEN_SCHEDULE
        assert vectorized.store == scalar.store, name
        assert vectorized.store.retried > 0


#: Retry policies for a trial-round that both refuses arrivals and times
#: out admitted requests.
REFUSE_AND_EXPIRE = [
    (
        "backoff-jitter",
        lambda: ExponentialBackoffPolicy(base=1, cap=8, jitter=8, budget=3),
    ),
    ("immediate", lambda: ImmediateRetryPolicy(budget=2)),
]


class TestRefusalAndTimeoutInOneRound:
    """Refusals and timeouts of one trial-round fail in candidate order.

    At rate 3.0 with capacity 2 and timeout 1, every loaded round refuses
    arrivals and expires what it admitted, in the same trial.
    """

    @pytest.mark.parametrize(
        "name,retry", REFUSE_AND_EXPIRE, ids=[c[0] for c in REFUSE_AND_EXPIRE]
    )
    @pytest.mark.parametrize(
        "protocol,channel,engine",
        [
            (DecayProtocol(N), without_collision_detection(), ENGINE_OPEN_SCHEDULE),
            (WillardProtocol(N), with_collision_detection(), ENGINE_OPEN_HISTORY),
        ],
        ids=["decay", "willard"],
    )
    def test_vectorized_matches_scalar(self, name, retry, protocol, channel, engine):
        vectorized, scalar = run_pair(
            protocol,
            channel,
            arrivals=PoissonArrivals(3.0),
            trials=16,
            rounds=200,
            capacity=2,
            timeout=1,
            retry=retry(),
        )
        assert vectorized.engine == engine
        assert vectorized.store == scalar.store, name
        assert vectorized.store.retried > 0
        assert vectorized.store.abandoned > 0


class TestZeroPolicyPinning:
    """Default policies must reproduce the pre-policy driver exactly.

    The expected stores are pinned from the PR 7 driver (captured before
    the lifecycle refactor); equality on every shared key proves the
    refactor is invisible when no policy is active.
    """

    def test_decay_store_is_unchanged(self):
        result = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.2),
            channel=without_collision_detection(),
            trials=6,
            rounds=200,
            warmup=20,
            capacity=16,
            timeout=40,
            seed=13,
        )
        data = result.store.to_dict()
        expected = {
            "hist": [
                0, 40, 19, 11, 10, 14, 6, 6, 11, 6, 6, 9, 8, 4, 6, 3, 3, 5,
                3, 3, 2, 5, 4, 3, 2, 2, 0, 2, 1, 1, 1, 2, 0, 0, 2, 2, 0, 2,
            ],
            "arrivals": 244,
            "dropped": 0,
            "timed_out": 5,
            "in_flight": 13,
            "round_slots": 1080,
        }
        for key, value in expected.items():
            assert data[key] == value, key
        assert data["attempts"] == data["arrivals"]
        assert data["retried"] == data["abandoned"] == data["in_orbit"] == 0

    def test_willard_store_is_unchanged(self):
        result = run_open(
            WillardProtocol(N),
            PoissonArrivals(0.08),
            channel=with_collision_detection(),
            trials=5,
            rounds=160,
            warmup=0,
            capacity=8,
            seed=5,
        )
        data = result.store.to_dict()
        expected = {
            "hist": [0, 2, 3, 6, 16, 8, 8, 7, 8, 3, 2, 1, 1, 2, 0, 0, 0, 0, 2],
            "arrivals": 73,
            "dropped": 0,
            "timed_out": 0,
            "in_flight": 4,
            "round_slots": 800,
        }
        for key, value in expected.items():
            assert data[key] == value, key

    def test_explicit_defaults_match_omitted_policies(self):
        kwargs = dict(
            channel=without_collision_detection(),
            trials=6,
            rounds=128,
            capacity=8,
            timeout=20,
            seed=17,
        )
        implicit = run_open(DecayProtocol(N), PoissonArrivals(0.3), **kwargs)
        explicit = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.3),
            retry=GiveUpPolicy(),
            admission=HardCapacityPolicy(),
            **kwargs,
        )
        assert implicit.store == explicit.store


class TestDeterminismAndSharding:
    def test_same_seed_reproduces_the_store(self):
        first, _ = run_pair(DecayProtocol(N), without_collision_detection())
        second, _ = run_pair(DecayProtocol(N), without_collision_detection())
        assert first.store == second.store

    def test_shards_merge_to_the_whole_run(self):
        protocol, channel = DecayProtocol(N), without_collision_detection()
        arrivals = PoissonArrivals(0.2)
        common = dict(channel=channel, rounds=200, warmup=20, seed=11)
        whole = run_open(protocol, arrivals, trials=13, **common)
        left = run_open(protocol, arrivals, trials=8, **common)
        right = run_open(
            protocol, arrivals, trials=5, trial_offset=8, **common
        )
        assert left.store.merge(right.store) == whole.store

    def test_shards_merge_exactly_with_policies_active(self):
        protocol, channel = DecayProtocol(N), without_collision_detection()
        arrivals = PoissonArrivals(0.35)
        common = dict(
            channel=channel,
            rounds=200,
            warmup=0,
            capacity=10,
            timeout=20,
            seed=11,
        )
        policies = dict(
            retry=ExponentialBackoffPolicy(base=2, cap=16, jitter=3, budget=4),
            admission=OccupancySheddingPolicy(threshold=0.3),
        )
        whole = run_open(protocol, arrivals, trials=9, **common, **policies)
        left = run_open(protocol, arrivals, trials=4, **common, **policies)
        right = run_open(
            protocol, arrivals, trials=5, trial_offset=4, **common, **policies
        )
        assert left.store.merge(right.store) == whole.store
        assert whole.store.retried > 0

    def test_trial_offset_changes_the_streams(self):
        protocol, channel = DecayProtocol(N), without_collision_detection()
        arrivals = PoissonArrivals(0.2)
        common = dict(channel=channel, trials=4, rounds=128, seed=11)
        base = run_open(protocol, arrivals, **common)
        offset = run_open(protocol, arrivals, trial_offset=4, **common)
        assert base.store != offset.store


class TestAccounting:
    def test_requests_are_conserved_without_warmup(self):
        result = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.3),
            channel=without_collision_detection(),
            trials=8,
            rounds=300,
            warmup=0,
            capacity=16,
            timeout=60,
            seed=3,
        )
        store = result.store
        assert store.arrivals > 0
        assert store.arrivals == (
            store.completed + store.dropped + store.timed_out + store.in_flight
        )

    def test_requests_are_conserved_with_retries_active(self):
        result = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.5),
            channel=without_collision_detection(),
            trials=6,
            rounds=150,
            warmup=0,
            capacity=8,
            timeout=12,
            retry=ExponentialBackoffPolicy(base=1, cap=8, jitter=2, budget=3),
            admission=TokenBucketPolicy(rate=0.4, burst=2.0),
            seed=3,
        )
        store = result.store
        assert store.retried > 0 and store.abandoned > 0
        assert store.arrivals == (
            store.completed
            + store.dropped
            + store.timed_out
            + store.abandoned
            + store.in_flight
            + store.in_orbit
        )
        # attempts = fresh presentations + orbit rejoins; every rejoin
        # was first counted as a retry, and orbit residents have not yet
        # re-presented.
        assert store.attempts >= store.arrivals
        assert store.attempts <= store.arrivals + store.retried

    def test_retry_budget_bounds_abandonment(self):
        """With budget b, a request dies only after b retries; give-up
        (budget 0) keeps the PR 7 counters and never abandons."""
        kwargs = dict(
            channel=without_collision_detection(),
            trials=4,
            rounds=200,
            warmup=0,
            capacity=8,
            timeout=10,
            seed=21,
        )
        give_up = run_open(
            DecayProtocol(N), PoissonArrivals(0.6), **kwargs
        ).store
        assert give_up.abandoned == 0 and give_up.retried == 0
        budgeted = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.6),
            retry=ImmediateRetryPolicy(budget=2),
            **kwargs,
        ).store
        assert budgeted.abandoned > 0
        # Every abandonment consumed exactly `budget` retries; other
        # retreads are still circulating or completed.
        assert budgeted.retried >= 2 * budgeted.abandoned

    def test_capacity_overflow_drops(self):
        result = run_open(
            DecayProtocol(N),
            PoissonArrivals(2.0),  # far beyond service capacity
            channel=without_collision_detection(),
            trials=4,
            rounds=200,
            capacity=8,
            seed=0,
        )
        assert result.store.dropped > 0

    def test_timeout_bounds_the_measured_sojourns(self):
        result = run_open(
            DecayProtocol(N),
            PoissonArrivals(0.6),
            channel=without_collision_detection(),
            trials=8,
            rounds=300,
            timeout=25,
            seed=5,
        )
        summary = result.store.summary()
        assert result.store.timed_out > 0
        assert summary.maximum <= 25

    def test_silent_stream_measures_nothing(self):
        result = run_open(
            DecayProtocol(N),
            SilentArrivals(),
            channel=without_collision_detection(),
            trials=4,
            rounds=64,
            seed=0,
        )
        store = result.store
        assert store.arrivals == 0 and store.completed == 0
        assert store.round_slots == 4 * 64
        assert "n/a" in store.summary().render()

    def test_warmup_excludes_early_completions(self):
        kwargs = dict(
            channel=without_collision_detection(),
            trials=8,
            rounds=256,
            seed=9,
        )
        cold = run_open(DecayProtocol(N), PoissonArrivals(0.2), **kwargs)
        warm = run_open(
            DecayProtocol(N), PoissonArrivals(0.2), warmup=128, **kwargs
        )
        assert warm.store.completed < cold.store.completed
        assert warm.store.round_slots == 8 * 128


class TestValidation:
    def test_cd_protocol_needs_cd_channel(self):
        with pytest.raises(ProtocolError):
            run_open(
                WillardProtocol(N),
                PoissonArrivals(0.1),
                channel=without_collision_detection(),
                trials=2,
                rounds=16,
            )

    def test_parameter_bounds(self):
        good = dict(
            channel=without_collision_detection(), trials=2, rounds=16
        )
        for bad in (
            {"trials": 0},
            {"rounds": 0},
            {"warmup": 16},
            {"warmup": -1},
            {"capacity": 0},
            {"timeout": 0},
            {"trial_offset": -1},
        ):
            with pytest.raises(ValueError):
                run_open(
                    DecayProtocol(N),
                    PoissonArrivals(0.1),
                    **{**good, **bad},
                )

    def test_capacity_error_message_is_actionable(self):
        with pytest.raises(ValueError, match="capacity must be >= 1"):
            run_open(
                DecayProtocol(N),
                PoissonArrivals(0.1),
                channel=without_collision_detection(),
                trials=2,
                rounds=16,
                capacity=0,
            )

    def test_policy_arguments_must_be_policies(self):
        good = dict(
            channel=without_collision_detection(), trials=2, rounds=16
        )
        with pytest.raises(ValueError, match="RetryPolicy"):
            run_open(
                DecayProtocol(N),
                PoissonArrivals(0.1),
                retry="backoff",
                **good,
            )
        with pytest.raises(ValueError, match="AdmissionPolicy"):
            run_open(
                DecayProtocol(N),
                PoissonArrivals(0.1),
                admission="shed",
                **good,
            )

    @pytest.mark.parametrize("batch", [None, False], ids=["schedule", "scalar"])
    @pytest.mark.parametrize(
        "name,script,message", BAD_COUNTS, ids=[bad[0] for bad in BAD_COUNTS]
    )
    def test_malformed_arrival_counts_name_the_process(
        self, name, script, message, batch
    ):
        with pytest.raises(ValueError, match=message):
            run_open(
                DecayProtocol(N),
                ScriptedArrivals(name, script),
                channel=without_collision_detection(),
                trials=3,
                rounds=16,
                batch=batch,
            )

    @pytest.mark.parametrize("batch", [None, False], ids=["schedule", "scalar"])
    def test_integer_counts_of_any_width_or_a_list_are_accepted(self, batch):
        stores = [
            run_open(
                DecayProtocol(N),
                ScriptedArrivals(name, script),
                channel=without_collision_detection(),
                trials=3,
                rounds=40,
                batch=batch,
            ).store
            for name, script in (
                ("int64", lambda rounds, _: np.ones(rounds, dtype=np.int64)),
                ("int32", lambda rounds, _: np.ones(rounds, dtype=np.int32)),
                ("uint8", lambda rounds, _: np.ones(rounds, dtype=np.uint8)),
                ("list", lambda rounds, _: [1] * rounds),
            )
        ]
        assert stores[0].arrivals == 3 * 40
        assert all(store == stores[0] for store in stores[1:])
