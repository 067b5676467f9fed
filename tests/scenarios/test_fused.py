"""Fused executor: partitioning, bit-identity with serial, and labels.

The fused executor's contract is *exact* agreement with the serial
reference on every point's statistics: each point draws from its own
seed-derived generator in precisely the order a solo run would, whether
its rounds execute stacked or alone.  The only permitted difference is
the recorded engine label (``fused-schedule`` / ``fused-history`` /
``fused-player`` records what actually executed).  These tests sweep the
registry protocol families across channels and workloads, mix compatible
and incompatible points in one grid, and unit-test the compatibility
analyzer itself.
"""

from __future__ import annotations

import pytest

from repro.analysis.montecarlo import (
    ENGINE_BATCH_HISTORY,
    ENGINE_BATCH_PLAYER,
    ENGINE_BATCH_SCHEDULE,
    ENGINE_FUSED_HISTORY,
    ENGINE_FUSED_PLAYER,
    ENGINE_FUSED_SCHEDULE,
    ENGINE_SCALAR_UNIFORM,
)
from repro.scenarios import (
    ScenarioSpec,
    Sweep,
    fusion_groups,
    fusion_key,
    run_sweep,
)
from repro.scenarios.runner import resolve_scenario

#: Serial label -> the label the fused executor stamps on stacked points.
_FUSED_LABEL = {
    ENGINE_BATCH_SCHEDULE: ENGINE_FUSED_SCHEDULE,
    ENGINE_BATCH_HISTORY: ENGINE_FUSED_HISTORY,
    ENGINE_BATCH_PLAYER: ENGINE_FUSED_PLAYER,
}


def assert_identical_results(sweep: Sweep) -> list[str]:
    """Run serial and fused; assert per-point statistics are identical.

    Returns the fused engine labels (for callers asserting what fused).
    """
    serial = run_sweep(sweep, executor="serial")
    fused = run_sweep(sweep, executor="fused")
    assert len(serial.results) == len(fused.results)
    for point_serial, point_fused in zip(serial.results, fused.results):
        label = point_serial.spec.label()
        assert point_fused.spec == point_serial.spec, label
        assert point_fused.rounds == point_serial.rounds, label
        assert point_fused.success == point_serial.success, label
        strip = lambda meta: {k: v for k, v in meta.items() if k != "engine"}
        assert strip(point_fused.metadata) == strip(point_serial.metadata), label
        # The engine label may only change along the documented mapping.
        assert point_fused.engine in (
            point_serial.engine,
            _FUSED_LABEL.get(point_serial.engine),
        ), label
    return [point.engine for point in fused.results]


def uniform_base(**overrides) -> ScenarioSpec:
    data = {
        "name": "fz",
        "protocol": {"id": "decay", "params": {}},
        "workload": {"kind": "fixed", "params": {"k": 8}},
        "channel": "nocd",
        "n": 1024,
        "trials": 90,
        "max_rounds": 300,
        "seed": 11,
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


def player_base(**overrides) -> ScenarioSpec:
    data = {
        "name": "fz-p",
        "protocol": {"id": "tree-descent", "params": {"advice_bits": 3}},
        "workload": {"kind": "fixed", "params": {"k": 5}},
        "channel": "cd",
        "advice": {"function": "min-id-prefix", "bits": 3},
        "adversary": "random",
        "n": 256,
        "trials": 80,
        "max_rounds": 120,
        "seed": 17,
    }
    data.update(overrides)
    return ScenarioSpec.from_dict(data)


#: Workloads whose size source changes as it draws: a trace advances its
#: position and a bursty source its regime with every batch.  90 trials
#: are not whole passes of the 4-count trace, so a source shared across
#: points would start each point where the one before it stopped.
TRACE_WORKLOAD = {"kind": "trace", "params": {"ks": [4, 9, 2, 7]}}
BURSTY_WORKLOAD = {
    "kind": "bursty",
    "params": {
        "calm_rate": 0.004,
        "burst_rate": 0.2,
        "burst_arrival": 0.05,
        "burst_departure": 0.2,
    },
}


SCHEDULE_GRIDS = [
    (
        "decay/nocd/fixed-k",
        uniform_base(),
        {"workload.params.k": [2, 4, 8, 16, 32]},
    ),
    (
        "decay/cd-channel",
        uniform_base(channel="cd"),
        {"workload.params.k": [3, 9, 27]},
    ),
    (
        "fixed-probability/p-sweep",
        uniform_base(protocol={"id": "fixed-probability", "params": {"k_hat": 8}}),
        {"protocol.params.k_hat": [4.0, 8.0, 16.0, 32.0]},
    ),
    (
        "sorted-probing/distribution",
        uniform_base(
            protocol={"id": "sorted-probing", "params": {"one_shot": False}},
            prediction="truth",
            workload={
                "kind": "distribution",
                "params": {"family": "range_uniform_subset", "ranges": [2, 5]},
            },
        ),
        {"workload.params.ranges": [[2], [5], [2, 5], [3, 6], [2, 4, 7]]},
    ),
    (
        "sorted-probing/one-shot-horizons",
        uniform_base(
            protocol={"id": "sorted-probing", "params": {"one_shot": True}},
            prediction="truth",
            workload={
                "kind": "distribution",
                "params": {"family": "range_uniform_subset", "ranges": [2, 5]},
            },
        ),
        # Different range sets give one-shot schedules of different
        # lengths: mixed horizons inside a single fused group.
        {"workload.params.ranges": [[2], [2, 5], [2, 4, 7]]},
    ),
    (
        "truncated-decay/advice-blocks",
        uniform_base(
            protocol={
                "id": "truncated-decay",
                "params": {"advice_bits": 2, "k": 8},
            }
        ),
        {"protocol.params.k": [2, 8, 30], "workload.params.k": [2, 8]},
    ),
    (
        "restart(one-shot)/cycling",
        uniform_base(
            protocol={
                "id": "restart",
                "params": {"inner": {"id": "decay", "params": {"cycle": False}}},
            }
        ),
        {"workload.params.k": [4, 12]},
    ),
    (
        "bursty-workload",
        uniform_base(
            workload={
                "kind": "bursty",
                "params": {
                    "calm_rate": 0.004,
                    "burst_rate": 0.2,
                    "burst_arrival": 0.05,
                    "burst_departure": 0.2,
                },
            }
        ),
        {"workload.params.burst_rate": [0.1, 0.2, 0.4]},
    ),
    (
        "trace-workload",
        uniform_base(workload={"kind": "trace", "params": {"ks": [4, 9]}}),
        {"workload.params.ks": [[4, 9], [2, 2, 17], [30]]},
    ),
    (
        "explicit-seed-sweep",
        uniform_base(),
        {"seed": [1, 2, 3, 4]},
    ),
    # One trace or bursty workload under every point: these size sources
    # change as they draw, so each point must resolve its own.
    (
        "fixed-probability/one-trace-workload",
        uniform_base(
            protocol={"id": "fixed-probability", "params": {"k_hat": 8.0}},
            workload=TRACE_WORKLOAD,
        ),
        {"protocol.params.k_hat": [4.0, 9.0, 2.0]},
    ),
    (
        "fixed-probability/one-bursty-workload",
        uniform_base(
            protocol={"id": "fixed-probability", "params": {"k_hat": 8.0}},
            workload=BURSTY_WORKLOAD,
        ),
        {"protocol.params.k_hat": [4.0, 9.0, 2.0]},
    ),
]


HISTORY_GRIDS = [
    (
        "willard/fixed-k",
        uniform_base(protocol="willard", channel="cd"),
        {"workload.params.k": [2, 5, 30, 200]},
    ),
    (
        "willard/repetitions-and-k",
        uniform_base(protocol="willard", channel="cd"),
        {
            "protocol.params.repetitions": [1, 3, 5],
            "workload.params.k": [4, 64],
        },
    ),
    (
        # One-shot searches exhaust mid-stack: give-up bookkeeping
        # (rounds actually played) must survive fusion bit for bit.
        "willard/one-shot-exhaustion",
        uniform_base(
            protocol={
                "id": "willard",
                "params": {"restart": False, "repetitions": 1},
            },
            channel="cd",
            max_rounds=40,
        ),
        {"workload.params.k": [100, 500, 900]},
    ),
    (
        "code-search/prediction-quality",
        uniform_base(
            protocol={"id": "code-search", "params": {"one_shot": False}},
            channel="cd",
            prediction="truth",
            workload={
                "kind": "distribution",
                "params": {
                    "family": "range_uniform_subset",
                    "ranges": [2, 5, 8],
                },
            },
        ),
        {
            "prediction": [
                "truth",
                {"source": "distribution", "params": {"family": "uniform"}},
            ],
            "workload.params.ranges": [[2, 5, 8], [3, 6, 9]],
        },
    ),
    (
        "restart(one-shot-willard)/cycling",
        uniform_base(
            protocol={
                "id": "restart",
                "params": {
                    "inner": {
                        "id": "willard",
                        "params": {"restart": False, "repetitions": 1},
                    }
                },
            },
            channel="cd",
        ),
        {"workload.params.k": [3, 40]},
    ),
    (
        # Same protocol spec at every point: the stacked run shares one
        # memoized history trie across the whole group.
        "willard/seed-sweep",
        uniform_base(protocol="willard", channel="cd"),
        {"seed": [1, 2, 3, 4]},
    ),
    (
        "willard/bursty-workload",
        uniform_base(
            protocol="willard",
            channel="cd",
            workload={
                "kind": "bursty",
                "params": {
                    "calm_rate": 0.004,
                    "burst_rate": 0.2,
                    "burst_arrival": 0.05,
                    "burst_departure": 0.2,
                },
            },
        ),
        {"workload.params.burst_rate": [0.1, 0.2, 0.4]},
    ),
    (
        "willard/one-trace-workload",
        uniform_base(protocol="willard", channel="cd", workload=TRACE_WORKLOAD),
        {"protocol.params.repetitions": [1, 3, 5]},
    ),
    (
        "willard/one-bursty-workload",
        uniform_base(protocol="willard", channel="cd", workload=BURSTY_WORKLOAD),
        {"protocol.params.repetitions": [1, 3, 5]},
    ),
]


PLAYER_GRIDS = [
    (
        "tree-descent/bit-flip-curve",
        player_base(
            advice={
                "function": "min-id-prefix",
                "bits": 3,
                "corruption": {"model": "bit-flip", "probability": 0.0},
            }
        ),
        {"advice.corruption.probability": [0.0, 0.1, 0.25, 0.5, 0.9]},
    ),
    (
        "deterministic-scan/adversaries",
        player_base(
            protocol={"id": "deterministic-scan", "params": {"advice_bits": 3}},
            channel="nocd",
        ),
        {"adversary": ["random", "prefix", "suffix", "spread", "clustered"]},
    ),
    (
        "deterministic-scan/advice-families",
        player_base(
            protocol={"id": "deterministic-scan", "params": {"advice_bits": 3}},
            channel="nocd",
        ),
        {"advice.function": ["min-id-prefix", "range-block"]},
    ),
    (
        "fused-fallback/corruption-curve",
        player_base(
            protocol={
                "id": "fallback",
                "params": {
                    "primary": {
                        "id": "deterministic-scan",
                        "params": {"advice_bits": 3},
                    },
                    "fallback": {
                        "id": "deterministic-scan",
                        "params": {"advice_bits": 0},
                    },
                    "budget_rounds": "worst-case",
                },
            },
            channel="nocd",
            max_rounds=300,
        ),
        {
            "advice.corruption.probability": [0.0, 0.3, 0.8],
            "advice.corruption.model": ["bit-flip", "adversarial"],
        },
    ),
    (
        "player-seed-sweep",
        player_base(
            advice={
                "function": "min-id-prefix",
                "bits": 3,
                "corruption": {"model": "adversarial", "probability": 0.4},
            }
        ),
        {"seed": [5, 6, 7]},
    ),
]


class TestFusedSerialEquivalence:
    @pytest.mark.parametrize(
        "label,base,grid",
        SCHEDULE_GRIDS,
        ids=[case[0] for case in SCHEDULE_GRIDS],
    )
    def test_schedule_grids_bit_identical(self, label, base, grid):
        labels = assert_identical_results(Sweep(base=base, grid=grid))
        assert ENGINE_FUSED_SCHEDULE in labels, label

    @pytest.mark.parametrize(
        "label,base,grid",
        HISTORY_GRIDS,
        ids=[case[0] for case in HISTORY_GRIDS],
    )
    def test_history_grids_bit_identical(self, label, base, grid):
        labels = assert_identical_results(Sweep(base=base, grid=grid))
        assert ENGINE_FUSED_HISTORY in labels, label

    @pytest.mark.parametrize(
        "label,base,grid",
        PLAYER_GRIDS,
        ids=[case[0] for case in PLAYER_GRIDS],
    )
    def test_player_grids_bit_identical(self, label, base, grid):
        labels = assert_identical_results(Sweep(base=base, grid=grid))
        assert ENGINE_FUSED_PLAYER in labels, label

    def test_fused_history_point_reruns_identically_standalone(self):
        """A fused CD point re-run alone from its serialized spec must
        reproduce its statistics - trie sharing cannot leak anything."""
        from repro.scenarios import run_scenario

        sweep = Sweep(
            base=uniform_base(protocol="willard", channel="cd"),
            grid={"workload.params.k": [2, 9, 77]},
        )
        fused = run_sweep(sweep, executor="fused")
        assert all(
            point.engine == ENGINE_FUSED_HISTORY for point in fused.results
        )
        for point in fused.results:
            solo = run_scenario(ScenarioSpec.from_json(point.spec.to_json()))
            assert solo.rounds == point.rounds
            assert solo.success == point.success

    def test_fused_point_reruns_identically_standalone(self):
        """Any fused point re-run alone from its serialized spec must
        reproduce its statistics - fusion cannot leak across points."""
        from repro.scenarios import run_scenario

        sweep = Sweep(
            base=uniform_base(), grid={"workload.params.k": [2, 8, 32]}
        )
        fused = run_sweep(sweep, executor="fused")
        for point in fused.results:
            solo = run_scenario(ScenarioSpec.from_json(point.spec.to_json()))
            assert solo.rounds == point.rounds
            assert solo.success == point.success


class TestMixedGrids:
    def test_incompatible_points_fall_back_serially(self):
        """A grid mixing batch and forced-scalar points: the scalar
        points keep their serial label and exact results."""
        sweep = Sweep(
            base=uniform_base(trials=40),
            grid={"workload.params.k": [4, 8], "batch": [None, False]},
        )
        labels = assert_identical_results(sweep)
        assert labels.count(ENGINE_FUSED_SCHEDULE) == 2
        assert labels.count(ENGINE_SCALAR_UNIFORM) == 2

    def test_history_and_schedule_points_fuse_as_separate_groups(self):
        """One CD grid mixing decay (schedule engine) and Willard
        (history engine): each family stacks with its own kind."""
        sweep = Sweep(
            base=uniform_base(channel="cd", trials=40),
            grid={"protocol.id": ["decay", "willard"], "workload.params.k": [3, 9]},
        )
        labels = assert_identical_results(sweep)
        assert labels.count(ENGINE_FUSED_SCHEDULE) == 2
        assert labels.count(ENGINE_FUSED_HISTORY) == 2

    def test_singleton_history_point_stays_serial(self):
        """A lone history point has nothing to stack with: it runs (and
        is labelled) as a plain batch-history scenario."""
        sweep = Sweep(
            base=uniform_base(channel="cd", trials=40),
            grid={"protocol.id": ["decay", "willard"], "batch": [None]},
        )
        labels = assert_identical_results(sweep)
        assert labels == [ENGINE_BATCH_SCHEDULE, ENGINE_BATCH_HISTORY]

    def test_randomized_player_points_stay_serial(self):
        """Backoff batches within a point but cannot fuse across points
        (randomized sessions)."""
        sweep = Sweep(
            base=player_base(
                protocol={"id": "backoff", "params": {}},
                advice=None,
                trials=30,
            ),
            grid={"workload.params.k": [3, 6]},
        )
        labels = assert_identical_results(sweep)
        assert labels == [ENGINE_BATCH_PLAYER, ENGINE_BATCH_PLAYER]

    def test_differing_trials_split_schedule_groups(self):
        sweep = Sweep(
            base=uniform_base(),
            grid={"trials": [30, 60], "workload.params.k": [4, 8]},
        )
        labels = assert_identical_results(sweep)
        assert labels.count(ENGINE_FUSED_SCHEDULE) == 4  # two groups of two


class TestFusionAnalyzer:
    """Unit tests for fusion_key / fusion_groups on resolved points."""

    def _resolve(self, spec: ScenarioSpec):
        return resolve_scenario(spec)

    def test_schedule_points_share_a_key_across_params(self):
        a = self._resolve(uniform_base())
        b = self._resolve(
            uniform_base(
                protocol={"id": "fixed-probability", "params": {"k_hat": 9}},
                seed=99,
            )
        )
        assert fusion_key(a) == fusion_key(b) is not None

    def test_trials_budget_and_channel_split_schedule_keys(self):
        base = self._resolve(uniform_base())
        assert fusion_key(self._resolve(uniform_base(trials=91))) != fusion_key(base)
        assert fusion_key(self._resolve(uniform_base(max_rounds=301))) != fusion_key(base)
        assert fusion_key(self._resolve(uniform_base(channel="cd"))) != fusion_key(base)

    def test_player_keys_require_identical_protocol_spec(self):
        a = self._resolve(player_base())
        same = self._resolve(player_base(adversary="suffix", seed=3))
        other_params = self._resolve(
            player_base(
                protocol={"id": "tree-descent", "params": {"advice_bits": 2}},
                advice={"function": "min-id-prefix", "bits": 2},
            )
        )
        assert fusion_key(a) == fusion_key(same) is not None
        assert fusion_key(a) != fusion_key(other_params)

    def test_player_keys_split_on_prediction_spec(self):
        """Protocol construction consumes the prediction (via
        BuildContext), so player points differing only there must not
        share the first point's protocol object."""
        plain = self._resolve(player_base())
        predicted = self._resolve(
            player_base(
                prediction={
                    "source": "distribution",
                    "params": {"family": "uniform"},
                }
            )
        )
        assert fusion_key(plain) != fusion_key(predicted)

    def test_history_points_share_a_key_across_params(self):
        """Willard and code search on one CD channel fuse regardless of
        protocol params, prediction quality or workload - exactly the
        schedule-point rule, on the history engine."""
        a = self._resolve(uniform_base(protocol="willard", channel="cd"))
        b = self._resolve(
            uniform_base(
                protocol={"id": "willard", "params": {"repetitions": 5}},
                channel="cd",
                seed=99,
            )
        )
        assert fusion_key(a) == fusion_key(b) is not None

    def test_history_keys_never_collide_with_schedule_keys(self):
        """Decay and Willard on the same CD channel must not stack into
        one engine run - the key carries the engine family."""
        schedule = self._resolve(uniform_base(channel="cd"))
        history = self._resolve(uniform_base(protocol="willard", channel="cd"))
        assert fusion_key(schedule) is not None
        assert fusion_key(history) is not None
        assert fusion_key(schedule) != fusion_key(history)

    def test_trials_and_budget_split_history_keys(self):
        base = self._resolve(uniform_base(protocol="willard", channel="cd"))
        assert fusion_key(
            self._resolve(
                uniform_base(protocol="willard", channel="cd", trials=91)
            )
        ) != fusion_key(base)
        assert fusion_key(
            self._resolve(
                uniform_base(protocol="willard", channel="cd", max_rounds=301)
            )
        ) != fusion_key(base)

    def test_unfusable_points_get_no_key(self):
        scalar = self._resolve(uniform_base(batch=False))
        scalar_history = self._resolve(
            uniform_base(protocol="willard", channel="cd", batch=False)
        )
        randomized_player = self._resolve(
            player_base(protocol={"id": "backoff", "params": {}}, advice=None)
        )
        assert fusion_key(scalar) is None
        assert fusion_key(scalar_history) is None
        assert fusion_key(randomized_player) is None

    def test_groups_preserve_first_seen_order(self):
        resolved = [
            self._resolve(uniform_base(seed=1)),
            self._resolve(uniform_base(batch=False)),
            self._resolve(uniform_base(seed=2)),
            self._resolve(player_base(seed=1)),
            self._resolve(player_base(seed=2)),
        ]
        assert fusion_groups(resolved) == [[0, 2], [1], [3, 4]]


class TestAdversarialFusion:
    """Channel models in the fused executor: grouping and fallbacks."""

    def _jam_channel(self, budget: int) -> dict:
        return {
            "collision_detection": False,
            "model": {"name": "jam-oblivious", "params": {"budget": budget}},
        }

    def test_channel_models_split_fusion_groups(self):
        """Points differing in their fault model never stack into one
        engine run; a null model shares the faithful channel's group."""
        faithful = resolve_scenario(uniform_base())
        nulled = resolve_scenario(uniform_base(channel=self._jam_channel(0)))
        jam_two = resolve_scenario(uniform_base(channel=self._jam_channel(2)))
        jam_three = resolve_scenario(
            uniform_base(channel=self._jam_channel(3))
        )
        assert fusion_key(faithful) == fusion_key(nulled) is not None
        assert fusion_key(jam_two) not in (None, fusion_key(faithful))
        assert fusion_key(jam_three) not in (
            None, fusion_key(faithful), fusion_key(jam_two),
        )

    def test_jam_grid_bit_identical_and_grouped_by_model(self):
        """A budget x k grid fuses per budget (two groups of two) and
        reproduces the serial reference exactly."""
        sweep = Sweep(
            base=uniform_base(channel=self._jam_channel(0), trials=60),
            grid={
                "channel.model.params.budget": [0, 3],
                "workload.params.k": [4, 8],
            },
        )
        labels = assert_identical_results(sweep)
        assert labels == [ENGINE_FUSED_SCHEDULE] * 4

    def test_jammed_player_points_fuse(self):
        """Deterministic jammers consume no randomness, so player points
        carrying them still stack through the fused player engine."""
        sweep = Sweep(
            base=player_base(
                channel={
                    "collision_detection": True,
                    "model": {"name": "jam-reactive",
                              "params": {"budget": 2}},
                },
                trials=40,
            ),
            grid={"workload.params.k": [3, 6]},
        )
        labels = assert_identical_results(sweep)
        assert labels == [ENGINE_FUSED_PLAYER] * 2

    def test_noisy_player_points_stay_on_batch_player(self):
        """Random fault models need per-round draws, which the
        randomness-free stacked player engine cannot provide: the points
        run serially (each still batching internally) and match serial."""
        noisy = player_base(
            channel={
                "collision_detection": True,
                "model": {"name": "noise",
                          "params": {"success_erasure": 0.2}},
            },
            trials=40,
        )
        assert fusion_key(resolve_scenario(noisy)) is None
        sweep = Sweep(base=noisy, grid={"workload.params.k": [3, 6]})
        labels = assert_identical_results(sweep)
        assert labels == [ENGINE_BATCH_PLAYER] * 2

    def test_rejoin_crash_fuses_on_uniform_but_not_player_points(self):
        """A rejoin-delay crash shrinks the live population, which the
        uniform stacked engines absorb through the per-trial active-count
        bands - the points fuse and reproduce the solo batch runs exactly.
        The player engines have no shrinking path, so player points still
        fall back to the scalar loop."""
        from repro.analysis.montecarlo import ENGINE_SCALAR_PLAYER

        crash = uniform_base(
            channel={
                "collision_detection": False,
                "model": {"name": "crash",
                          "params": {"probability": 0.3, "rejoin_after": 2}},
            },
            trials=25,
        )
        assert fusion_key(resolve_scenario(crash)) is not None
        sweep = Sweep(base=crash, grid={"workload.params.k": [4, 8]})
        labels = assert_identical_results(sweep)
        assert labels == [ENGINE_FUSED_SCHEDULE] * 2

        player_crash = player_base(
            channel={
                "collision_detection": True,
                "model": {"name": "crash",
                          "params": {"probability": 0.2, "rejoin_after": 1}},
            },
            trials=20,
        )
        result = run_sweep(
            Sweep(base=player_crash, grid={}), executor="fused"
        ).results[0]
        assert result.engine == ENGINE_SCALAR_PLAYER

    def test_metadata_records_the_model(self):
        jammed = run_sweep(
            Sweep(base=uniform_base(channel=self._jam_channel(2), trials=30),
                  grid={}),
            executor="serial",
        ).results[0]
        assert jammed.metadata["channel_model"].startswith("jam-oblivious")
        faithful = run_sweep(
            Sweep(base=uniform_base(trials=30), grid={}), executor="serial"
        ).results[0]
        assert faithful.metadata["channel_model"] == "faithful"
