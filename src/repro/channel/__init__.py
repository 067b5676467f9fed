"""The multiple-access channel substrate.

Implements the paper's execution model: a synchronous shared channel with
or without collision detection, adversarial participant selection, and the
round-by-round execution engine that drives protocols to the first
single-transmitter round.
"""

from .. import _lazy

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    "Channel": ".channel",
    "with_collision_detection": ".channel",
    "without_collision_detection": ".channel",
    "ChannelModel": ".models",
    "ObliviousJammer": ".models",
    "ReactiveJammer": ".models",
    "NoisyChannel": ".models",
    "CrashModel": ".models",
    "AdaptiveAdversary": ".models",
    "AdaptiveStrategy": ".models",
    "ADAPTIVE_STRATEGIES": ".models",
    "register_adaptive_strategy": ".models",
    "CHANNEL_MODELS": ".models",
    "channel_model_from_dict": ".models",
    "Adversary": ".network",
    "RandomAdversary": ".network",
    "PrefixAdversary": ".network",
    "SuffixAdversary": ".network",
    "SpreadAdversary": ".network",
    "ClusteredAdversary": ".network",
    "validate_participants": ".network",
    "MarkovBurstArrivals": ".arrivals",
    "TraceArrivals": ".arrivals",
    "run_uniform": ".simulator",
    "run_uniform_batch": ".batch",
    "run_schedule_stacked": ".batch",
    "run_history_stacked": ".batch",
    "is_batchable": ".batch",
    "run_players": ".simulator",
    "run_players_batch": ".batch_players",
    "run_players_stacked": ".batch_players",
    "pack_participants": ".batch_players",
    "DEFAULT_MAX_ROUNDS": ".simulator",
    "BatchExecutionResult": ".trace",
    "ExecutionResult": ".trace",
    "RoundRecord": ".trace",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy.exports(__name__, globals(), _EXPORTS)
