"""Contention-resolution protocols: baselines and the paper's algorithms.

Baselines
    :class:`DecayProtocol` (no-CD, ``O(log n)`` [2]),
    :class:`WillardProtocol` (CD, ``O(log log n)`` [22]),
    :class:`FixedProbabilityProtocol` (perfect estimate, ``O(1)``),
    :class:`BinaryExponentialBackoff` (practical MAC comparator),
    :class:`JiangZhengProtocol` (no-CD sawtooth, robust under jamming).

Prediction algorithms (Section 2)
    :class:`SortedProbingProtocol` (no-CD, Theorem 2.12),
    :class:`CodeSearchProtocol` (CD, Theorem 2.16).

Perfect-advice algorithms (Section 3)
    :class:`DeterministicScanProtocol` (no-CD, ``Theta(n / 2^b)``),
    :class:`DeterministicTreeDescentProtocol` (CD, ``Theta(log n - b)``),
    :class:`TruncatedDecayProtocol` (no-CD, ``Theta(log n / 2^b)``),
    :func:`truncated_willard_protocol` (CD, ``Theta(log log n - b)``).
"""

from .. import _lazy

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    # baselines
    "DecayProtocol": ".decay",
    "decay_schedule": ".decay",
    "WillardProtocol": ".willard",
    "FixedProbabilityProtocol": ".fixed_probability",
    "BinaryExponentialBackoff": ".backoff",
    "JiangZhengProtocol": ".jiang_zheng",
    "sawtooth_schedule": ".jiang_zheng",
    # prediction algorithms (Section 2)
    "SortedProbingProtocol": ".sorted_probing",
    "sorted_probing_schedule": ".sorted_probing",
    "CodeSearchProtocol": ".code_search",
    "PhasedSearchProtocol": ".searching",
    "PhasedSearchSession": ".searching",
    # advice algorithms (Section 3)
    "DeterministicScanProtocol": ".advice_deterministic",
    "DeterministicTreeDescentProtocol": ".advice_deterministic",
    "TruncatedDecayProtocol": ".advice_randomized",
    "truncated_willard_protocol": ".advice_randomized",
    "truncated_willard_for_count": ".advice_randomized",
    "block_index_for": ".advice_randomized",
    "advised_block": ".advice_randomized",
    "true_range_for_count": ".advice_randomized",
    # adapters and combinators
    "as_history_policy": ".adapters",
    "SessionReplayPolicy": ".adapters",
    "UniformAsPlayerProtocol": ".adapters",
    "RestartProtocol": ".restart",
    "FallbackPlayerProtocol": ".restart",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.exports(__name__, globals(), _EXPORTS)
