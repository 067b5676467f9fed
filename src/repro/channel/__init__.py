"""The multiple-access channel substrate.

Implements the paper's execution model: a synchronous shared channel with
or without collision detection, adversarial participant selection, and the
round-by-round execution engine that drives protocols to the first
single-transmitter round.
"""

from .arrivals import MarkovBurstArrivals, TraceArrivals
from .channel import Channel, with_collision_detection, without_collision_detection
from .models import (
    ADAPTIVE_STRATEGIES,
    CHANNEL_MODELS,
    AdaptiveAdversary,
    AdaptiveStrategy,
    ChannelModel,
    CrashModel,
    NoisyChannel,
    ObliviousJammer,
    ReactiveJammer,
    channel_model_from_dict,
    register_adaptive_strategy,
)
from .network import (
    Adversary,
    ClusteredAdversary,
    PrefixAdversary,
    RandomAdversary,
    SpreadAdversary,
    SuffixAdversary,
    validate_participants,
)
from .batch import (
    is_batchable,
    run_history_stacked,
    run_schedule_stacked,
    run_uniform_batch,
)
from .batch_players import (
    pack_participants,
    run_players_batch,
    run_players_stacked,
)
from .simulator import DEFAULT_MAX_ROUNDS, run_players, run_uniform
from .trace import BatchExecutionResult, ExecutionResult, RoundRecord

__all__ = [
    "Channel",
    "with_collision_detection",
    "without_collision_detection",
    "ChannelModel",
    "ObliviousJammer",
    "ReactiveJammer",
    "NoisyChannel",
    "CrashModel",
    "AdaptiveAdversary",
    "AdaptiveStrategy",
    "ADAPTIVE_STRATEGIES",
    "register_adaptive_strategy",
    "CHANNEL_MODELS",
    "channel_model_from_dict",
    "Adversary",
    "RandomAdversary",
    "PrefixAdversary",
    "SuffixAdversary",
    "SpreadAdversary",
    "ClusteredAdversary",
    "validate_participants",
    "MarkovBurstArrivals",
    "TraceArrivals",
    "run_uniform",
    "run_uniform_batch",
    "run_schedule_stacked",
    "run_history_stacked",
    "is_batchable",
    "run_players",
    "run_players_batch",
    "run_players_stacked",
    "pack_participants",
    "DEFAULT_MAX_ROUNDS",
    "BatchExecutionResult",
    "ExecutionResult",
    "RoundRecord",
]
