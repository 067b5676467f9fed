"""repro: a reproduction of "Contention Resolution with Predictions".

Gilbert, Newport, Vaidya, Weaver - PODC 2021 (arXiv:2105.12706).

The package implements the paper's two prediction models and everything
they stand on:

* **network-size predictions** (Section 2): the sorted-probing no-CD
  algorithm (Theorem 2.12) and the Huffman-code-class CD search
  (Theorem 2.16), with entropy/KL budgets, plus the complete
  lower-bound machinery (range finding, RF-Construction, tree
  construction, target-distance coding);
* **perfect advice** (Section 3): the four tight advice protocols and the
  strongly-selective-family / non-interactive lower-bound apparatus;
* substrates: a synchronous multiple-access channel simulator (with and
  without collision detection) and an information-theory toolkit
  (condensed distributions, entropy/KL, Huffman and Shannon codes);
* a measurement harness and an experiment registry regenerating every
  cell of the paper's Tables 1 and 2 (``repro list`` prints it).

Quick start::

    import numpy as np
    from repro import (
        SizeDistribution, Prediction, SortedProbingProtocol,
        run_uniform, without_collision_detection,
    )

    truth = SizeDistribution.bimodal(2**16, low_size=8, high_size=900)
    protocol = SortedProbingProtocol(Prediction(truth))
    rng = np.random.default_rng(7)
    result = run_uniform(
        protocol, k=truth.sample(rng), rng=rng,
        channel=without_collision_detection(),
    )
    print(result.solved, result.rounds)
"""

from . import _lazy

__version__ = "1.0.0"

#: Public name -> the subpackage defining it, imported on first use.
_EXPORTS = {
    # distributions and information theory
    "SizeDistribution": ".infotheory",
    "CondensedDistribution": ".infotheory",
    "PrefixCode": ".infotheory",
    "entropy": ".infotheory",
    "kl_divergence": ".infotheory",
    "huffman_code": ".infotheory",
    "num_ranges": ".infotheory",
    "range_of_size": ".infotheory",
    "mix_with_uniform": ".infotheory",
    "shift_ranges": ".infotheory",
    # core abstractions
    "Prediction": ".core",
    "BudgetReport": ".core",
    "Feedback": ".core",
    "Observation": ".core",
    "ProbabilitySchedule": ".core",
    "ScheduleProtocol": ".core",
    "UniformProtocol": ".core",
    "AdviceFunction": ".core",
    "NullAdvice": ".core",
    "MinIdPrefixAdvice": ".core",
    "RangeBlockAdvice": ".core",
    "FullIdAdvice": ".core",
    # channel
    "Channel": ".channel",
    "with_collision_detection": ".channel",
    "without_collision_detection": ".channel",
    "run_uniform": ".channel",
    "run_players": ".channel",
    "ExecutionResult": ".channel",
    "RandomAdversary": ".channel",
    # protocols
    "DecayProtocol": ".protocols",
    "WillardProtocol": ".protocols",
    "FixedProbabilityProtocol": ".protocols",
    "BinaryExponentialBackoff": ".protocols",
    "SortedProbingProtocol": ".protocols",
    "CodeSearchProtocol": ".protocols",
    "DeterministicScanProtocol": ".protocols",
    "DeterministicTreeDescentProtocol": ".protocols",
    "TruncatedDecayProtocol": ".protocols",
    "truncated_willard_protocol": ".protocols",
    "RestartProtocol": ".protocols",
    "FallbackPlayerProtocol": ".protocols",
    "UniformAsPlayerProtocol": ".protocols",
    # learning
    "SizePredictor": ".learning",
    "HistogramLearner": ".learning",
    "DecayingHistogramLearner": ".learning",
    "SlidingWindowLearner": ".learning",
    "run_online": ".learning",
    # analysis
    "Summary": ".analysis",
    "ProportionEstimate": ".analysis",
    "RoundsEstimate": ".analysis",
    "estimate_uniform_rounds": ".analysis",
    "estimate_success_within": ".analysis",
    "estimate_player_rounds": ".analysis",
    "schedule_solve_time": ".analysis",
    # experiments
    "ExperimentConfig": ".experiments",
    "ExperimentResult": ".experiments",
    "experiment_ids": ".experiments",
    "run_experiment": ".experiments",
    "run_all": ".experiments",
    # scenarios
    "ScenarioSpec": ".scenarios",
    "ScenarioResult": ".scenarios",
    "run_scenario": ".scenarios",
    "Sweep": ".scenarios",
    "SweepResult": ".scenarios",
    "run_sweep": ".scenarios",
}

__all__ = ["__version__", *_EXPORTS]
__getattr__, __dir__ = _lazy.exports(__name__, globals(), _EXPORTS)
