"""The full predict-resolve-learn loop, simulated end to end.

This is the deployment story the paper's introduction sketches: a learned
model watches the environment, each contention-resolution instance uses
the current prediction, and the realised size feeds back into the model.
:func:`run_online` simulates that loop and reports per-instance rounds,
the prediction divergence trajectory, and comparisons against the
know-nothing baseline (decay / Willard) and the clairvoyant oracle
(prediction = truth) - i.e. the empirical "regret" of learning.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ..channel.batch import run_uniform_batch
from ..channel.channel import Channel
from ..channel.simulator import run_uniform
from ..core.predictions import Prediction
from ..core.protocol import UniformProtocol
from ..infotheory.distributions import SizeDistribution
from ..protocols.code_search import CodeSearchProtocol
from ..protocols.decay import DecayProtocol
from ..protocols.sorted_probing import SortedProbingProtocol
from ..protocols.willard import WillardProtocol
from .base import SizePredictor

__all__ = ["OnlineRecord", "OnlineReport", "run_online", "prediction_protocol_for"]


@dataclass(frozen=True)
class OnlineRecord:
    """One instance of the online loop."""

    instance: int
    k: int
    divergence_bits: float
    learner_rounds: int
    oracle_rounds: int
    baseline_rounds: int


@dataclass
class OnlineReport:
    """Aggregate of an online run."""

    records: list[OnlineRecord] = field(default_factory=list)

    def mean_rounds(self, *, first: int | None = None, last: int | None = None) -> float:
        """Mean learner rounds over a slice of instances."""
        selected = self.records
        if first is not None:
            selected = selected[:first]
        if last is not None:
            selected = selected[-last:]
        if not selected:
            raise ValueError("no records in the requested slice")
        return float(np.mean([record.learner_rounds for record in selected]))

    def mean_oracle_rounds(self) -> float:
        return float(np.mean([record.oracle_rounds for record in self.records]))

    def mean_baseline_rounds(self) -> float:
        return float(np.mean([record.baseline_rounds for record in self.records]))

    def final_divergence(self) -> float:
        if not self.records:
            raise ValueError("empty report")
        return self.records[-1].divergence_bits

    def learning_gap(self, tail: int) -> float:
        """Mean learner excess over the oracle, over the last ``tail``
        instances - the converged regret per instance."""
        selected = self.records[-tail:]
        return float(
            np.mean(
                [
                    record.learner_rounds - record.oracle_rounds
                    for record in selected
                ]
            )
        )


def prediction_protocol_for(
    prediction: Prediction, channel: Channel
) -> UniformProtocol:
    """The paper's prediction protocol matching the channel's capability.

    Cycling variants (the loop measures expected rounds, not one-shot
    success), full range support (the learner smooths, so every range has
    positive mass anyway).
    """
    if channel.collision_detection:
        return CodeSearchProtocol(prediction, one_shot=False)
    return SortedProbingProtocol(prediction, one_shot=False)


def run_online(
    truth_for_instance: Callable[[int], SizeDistribution],
    learner: SizePredictor,
    channel: Channel,
    rng: np.random.Generator,
    *,
    instances: int,
    max_rounds: int = 100_000,
    batch: bool = True,
) -> OnlineReport:
    """Simulate the observe-predict-resolve loop for ``instances`` rounds.

    ``truth_for_instance(i)`` returns the true size distribution of
    instance ``i`` (constant for stationary environments, varying for
    drift scenarios).  For each instance: draw ``k``, run the learner's
    prediction protocol, run the clairvoyant oracle (prediction = current
    truth) and the know-nothing baseline on the *same* ``k``, then feed
    ``k`` back to the learner.

    With ``batch`` (default) the comparison arms run on the vectorized
    engine: the learner loop stays sequential (its protocol depends on
    everything observed so far), but the oracle arm only depends on the
    instance's truth and the baseline arm on nothing, so those executions
    are batched - one lockstep run per distinct truth distribution plus
    one for the baseline - instead of two scalar runs per instance.
    """
    if instances < 1:
        raise ValueError(f"instances must be >= 1, got {instances}")
    if not batch:
        return _run_online_scalar(
            truth_for_instance, learner, channel, rng,
            instances=instances, max_rounds=max_rounds,
        )
    n = learner.n
    baseline: UniformProtocol = (
        WillardProtocol(n) if channel.collision_detection else DecayProtocol(n)
    )
    truths: list[SizeDistribution] = []
    ks = np.empty(instances, dtype=np.int64)
    for instance in range(instances):
        truth = truth_for_instance(instance)
        if truth.n != n:
            raise ValueError("truth distribution board size differs from learner")
        truths.append(truth)
        ks[instance] = truth.sample(rng)

    # Sequential arm: predict -> resolve -> observe, exactly as deployed.
    divergences = np.empty(instances, dtype=float)
    learner_rounds = np.empty(instances, dtype=np.int64)
    for instance in range(instances):
        predicted = learner.predict()
        divergences[instance] = (
            truths[instance].condense().kl_divergence(predicted.condense())
        )
        learner_rounds[instance] = run_uniform(
            prediction_protocol_for(Prediction(predicted), channel),
            int(ks[instance]), rng, channel=channel, max_rounds=max_rounds,
        ).rounds
        learner.observe(int(ks[instance]))

    oracle_rounds = np.empty(instances, dtype=np.int64)
    for group_truth, members in _group_by_identity(truths):
        protocol = prediction_protocol_for(Prediction(group_truth), channel)
        oracle_rounds[members] = run_uniform_batch(
            protocol, ks[members], rng, channel=channel, max_rounds=max_rounds
        ).rounds
    baseline_rounds = run_uniform_batch(
        baseline, ks, rng, channel=channel, max_rounds=max_rounds
    ).rounds

    report = OnlineReport()
    for instance in range(instances):
        report.records.append(
            OnlineRecord(
                instance=instance,
                k=int(ks[instance]),
                divergence_bits=float(divergences[instance]),
                learner_rounds=int(learner_rounds[instance]),
                oracle_rounds=int(oracle_rounds[instance]),
                baseline_rounds=int(baseline_rounds[instance]),
            )
        )
    return report


def _group_by_identity(
    truths: list[SizeDistribution],
) -> list[tuple[SizeDistribution, np.ndarray]]:
    """Instance indices grouped by truth object, in first-appearance order.

    Stationary environments return one object for every instance (one
    group, one batch); drift scenarios return a handful.  Grouping is by
    identity, not equality - a fresh-but-equal object per instance only
    costs smaller batches, never correctness.
    """
    order: list[int] = []
    members: dict[int, list[int]] = {}
    representative: dict[int, SizeDistribution] = {}
    for index, truth in enumerate(truths):
        key = id(truth)
        if key not in members:
            order.append(key)
            members[key] = []
            representative[key] = truth
        members[key].append(index)
    return [
        (representative[key], np.asarray(members[key], dtype=np.intp))
        for key in order
    ]


def _run_online_scalar(
    truth_for_instance: Callable[[int], SizeDistribution],
    learner: SizePredictor,
    channel: Channel,
    rng: np.random.Generator,
    *,
    instances: int,
    max_rounds: int,
) -> OnlineReport:
    """The reference per-instance loop (``batch=False``), kept verbatim."""
    report = OnlineReport()
    n = learner.n
    baseline: UniformProtocol = (
        WillardProtocol(n) if channel.collision_detection else DecayProtocol(n)
    )
    for instance in range(instances):
        truth = truth_for_instance(instance)
        if truth.n != n:
            raise ValueError("truth distribution board size differs from learner")
        k = truth.sample(rng)
        predicted = learner.predict()
        divergence = truth.condense().kl_divergence(predicted.condense())

        learner_result = run_uniform(
            prediction_protocol_for(Prediction(predicted), channel),
            k, rng, channel=channel, max_rounds=max_rounds,
        )
        oracle_result = run_uniform(
            prediction_protocol_for(Prediction(truth), channel),
            k, rng, channel=channel, max_rounds=max_rounds,
        )
        baseline_result = run_uniform(
            baseline, k, rng, channel=channel, max_rounds=max_rounds
        )
        report.records.append(
            OnlineRecord(
                instance=instance,
                k=k,
                divergence_bits=divergence,
                learner_rounds=learner_result.rounds,
                oracle_rounds=oracle_result.rounds,
                baseline_rounds=baseline_result.rounds,
            )
        )
        learner.observe(k)
    return report
