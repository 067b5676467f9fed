"""Monte Carlo estimation of protocol round complexity.

The workhorse of every experiment: run a protocol many times against a
fixed size, a size distribution, or an adversarial participant generator,
and summarise rounds-to-success and success-within-budget.  All entry
points take an explicit ``numpy`` Generator so every experiment is
reproducible from its seed, and protocols are passed as zero-argument
*factories* when they carry per-execution state.

Estimation runs on the **vectorized batch engines**
(:mod:`repro.channel.batch` for uniform protocols,
:mod:`repro.channel.batch_players` for identity/advice-aware ones)
whenever the protocol supports it: all trials advance in lockstep - one
uniform per live trial and round against the round's trichotomy band
edges on the uniform path (a faithful schedule point settles a
16-round draw block per step), one array-state decide / observe per
round on the player path - which is 5-100x faster than the
per-trial scalar loops at experiment scale.  The scalar loops remain the
reference implementations and correctness oracles (``batch=False``
forces them; factory protocols, randomized-session wrappers and
non-batchable player combinators always take them), and the two paths
agree statistically - the batch rounds/success arrays are drawn from
exactly the same distribution, just with a different consumption order
of the RNG stream (deterministic player protocols agree exactly).
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from ..channel.batch import run_history_stacked, run_schedule_stacked
from ..channel.batch_players import run_players_batch, run_players_stacked
from ..channel.channel import Channel
from ..channel.simulator import (
    _check_channel,
    checked_advice_source,
    run_players,
    run_uniform,
)
from ..core.advice import AdviceFunction
from ..core.protocol import PlayerProtocol, UniformProtocol
from .metrics import ProportionEstimate, Summary

if TYPE_CHECKING:
    from ..channel.models import ChannelModel

__all__ = [
    "RoundsEstimate",
    "estimate_uniform_rounds",
    "estimate_uniform_rounds_many",
    "estimate_success_within",
    "estimate_player_rounds",
    "estimate_player_rounds_many",
    "Route",
    "route",
    "ENGINE_BATCH_SCHEDULE",
    "ENGINE_BATCH_HISTORY",
    "ENGINE_BATCH_PLAYER",
    "ENGINE_SCALAR_UNIFORM",
    "ENGINE_SCALAR_PLAYER",
    "ENGINE_FUSED_SCHEDULE",
    "ENGINE_FUSED_HISTORY",
    "ENGINE_FUSED_PLAYER",
    "ENGINE_OPEN_SCHEDULE",
    "ENGINE_OPEN_HISTORY",
    "ENGINE_OPEN_SCALAR",
]

UniformFactory = Callable[[], UniformProtocol] | UniformProtocol


class SupportsSampleMany(Protocol):
    """Structural size-source interface: per-trial participant counts.

    Satisfied by :class:`SizeDistribution` and the arrival models of
    :mod:`repro.channel.arrivals`; ``sample_many`` is the vectorized
    batch-path draw, ``sample`` the scalar-path draw.
    """

    def sample(self, rng: np.random.Generator) -> int: ...

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray: ...


#: A size source is a fixed ``k``, any :class:`SupportsSampleMany` object,
#: or a bare per-trial callable (always the scalar sampling path).
SizeSource = int | SupportsSampleMany | Callable[[np.random.Generator], int]

#: Per-point engine labels chosen by :func:`route` and surfaced in
#: scenario metadata: the three vectorized batch paths and the two
#: scalar reference loops.
ENGINE_BATCH_SCHEDULE = "batch-schedule"
ENGINE_BATCH_HISTORY = "batch-history"
ENGINE_BATCH_PLAYER = "batch-player"
ENGINE_SCALAR_UNIFORM = "scalar-uniform"
ENGINE_SCALAR_PLAYER = "scalar-player"

#: Labels recorded by the fused sweep executor when it stacks several
#: compatible scenario points into one engine run (statistics stay
#: bit-identical to the per-point labels above; only the label differs,
#: recording what actually executed).
ENGINE_FUSED_SCHEDULE = "fused-schedule"
ENGINE_FUSED_HISTORY = "fused-history"
ENGINE_FUSED_PLAYER = "fused-player"

#: Engines of the open-system driver (:mod:`repro.opensys.driver`).
ENGINE_OPEN_SCHEDULE = "open-schedule"
ENGINE_OPEN_HISTORY = "open-history"
ENGINE_OPEN_SCALAR = "open-scalar"


@dataclass(frozen=True)
class Route:
    """Where a point runs: its engine, and the stacked engine it may share.

    ``fused`` is the label the fused sweep executor records when it
    stacks the point with compatible ones, or ``None`` when the point
    always runs alone.
    """

    engine: str
    fused: str | None = None


def route(
    protocol: UniformFactory | PlayerProtocol,
    batch: bool | None = None,
    *,
    model: ChannelModel | None = None,
    open_system: bool = False,
) -> Route:
    """The one routing table: which engine runs ``protocol``.

    Pure (no simulation).  ``batch=None`` picks the vectorized engine
    wherever one applies, ``False`` forces the scalar reference loop and
    ``True`` insists on a vectorized engine, raising ``ValueError`` where
    none applies.  ``model`` is the channel's active fault model.

    * **Closed uniform.**  A protocol instance publishing its
      :meth:`~repro.core.protocol.UniformProtocol.batch_schedule` runs on
      the schedule engine, one with deterministic sessions on the history
      engine; factories and randomized sessions run scalar.  Every model
      runs on both engines.
    * **Player.**  Protocols with batch sessions run on the player
      engine, unless the model shrinks the live population (a crash with
      a rejoin delay), which only the scalar loop expresses.  Only
      randomness-free sessions stack, and only under a model that draws
      no fault randomness: the stacked player engine has no generator.
    * **Open** (``open_system=True``).  The schedule / history split of
      the closed uniform engines, with the scalar oracle as fallback.
      Player protocols and population-shrinking models raise: the open
      population is the arrival process itself.

    A model that is not :attr:`~repro.channel.models.ChannelModel.fusable`
    (the adaptive adversaries) never stacks, and open points never do.
    """
    fusable = model is None or model.fusable
    if isinstance(protocol, PlayerProtocol) and not open_system:
        if model is not None and model.shrinks_population:
            if batch is True:
                raise ValueError(
                    f"batch=True but channel model {model.name!r} only runs "
                    "on the scalar engine (a non-zero crash rejoin delay "
                    "changes the live participant set mid-trial)"
                )
            return Route(ENGINE_SCALAR_PLAYER)
        batchable = protocol.supports_batch_sessions()
        if batch is True and not batchable:
            raise ValueError(
                "batch=True requires a player protocol with batch sessions "
                f"({protocol.name!r} supports only the scalar per-player loop)"
            )
        if batch is False or not batchable:
            return Route(ENGINE_SCALAR_PLAYER)
        stacks = (
            fusable
            and protocol.supports_fused_sessions()
            and not (model is not None and model.needs_fault_draws)
        )
        return Route(ENGINE_BATCH_PLAYER, ENGINE_FUSED_PLAYER if stacks else None)

    uniform = isinstance(protocol, UniformProtocol)
    scheduled = uniform and protocol.batch_schedule() is not None
    batchable = scheduled or (uniform and protocol.deterministic_sessions)
    if open_system:
        if not uniform:
            raise ValueError(
                "the open-system driver runs uniform protocols only; "
                f"got {type(protocol).__name__}"
            )
        if model is not None and model.shrinks_population:
            raise ValueError(
                f"channel model {model.name!r} shrinks the live population "
                "(a crash with a non-zero rejoin delay); the open population "
                "is the arrival process itself, so no open engine can "
                "express it"
            )
        if batch is True and not batchable:
            raise ValueError(
                f"protocol {protocol.name!r} has randomized sessions; only the "
                "scalar open engine can execute it (pass batch=None or False)"
            )
        if batch is False or not batchable:
            return Route(ENGINE_OPEN_SCALAR)
        return Route(ENGINE_OPEN_SCHEDULE if scheduled else ENGINE_OPEN_HISTORY)

    if batch is True and not batchable:
        raise ValueError(
            "batch=True requires a batchable UniformProtocol instance "
            "(got a factory or a randomized-session protocol)"
        )
    if batch is False or not batchable:
        return Route(ENGINE_SCALAR_UNIFORM)
    if scheduled:
        return Route(
            ENGINE_BATCH_SCHEDULE, ENGINE_FUSED_SCHEDULE if fusable else None
        )
    return Route(ENGINE_BATCH_HISTORY, ENGINE_FUSED_HISTORY if fusable else None)


@dataclass(frozen=True)
class RoundsEstimate:
    """Joint rounds/success summary of a Monte Carlo batch.

    ``rounds`` summarises the solving round over *successful* trials;
    ``success`` is the solved-within-budget proportion.  Unsolved trials
    are excluded from the rounds summary (they are right-censored at the
    budget); use :attr:`success` to detect and reason about censoring.
    When *no* trial succeeded, ``rounds`` is the explicit zero-sample
    summary (``count == 0``, NaN mean) - there is no data to fabricate.
    """

    rounds: Summary
    success: ProportionEstimate

    @property
    def mean_rounds(self) -> float:
        return self.rounds.mean

    @property
    def success_rate(self) -> float:
        return self.success.rate

    @property
    def any_successes(self) -> bool:
        """Whether the rounds summary rests on at least one sample."""
        return self.rounds.count > 0


def _resolve_protocol(factory: UniformFactory) -> Callable[[], UniformProtocol]:
    if isinstance(factory, UniformProtocol):
        return lambda: factory
    return factory


def _fixed_size(source: SizeSource) -> int | None:
    """The ``k`` of a fixed size source, or None for a sampler.

    Python and NumPy integers are fixed sizes (``operator.index``, the
    rule the scenario specs use), and bools are not.  Anything else must
    be a sampler: a ``sample``/``sample_many`` object or a callable.
    """
    if not isinstance(source, bool):
        try:
            k = operator.index(source)
        except TypeError:
            pass
        else:
            if k < 1:
                raise ValueError(f"fixed size must be >= 1, got {k}")
            return k
    if not (
        hasattr(source, "sample")
        or hasattr(source, "sample_many")
        or callable(source)
    ):
        raise ValueError(
            "size source must be an integer, a sample/sample_many object "
            f"or a callable, got {type(source).__name__}"
        )
    return None


def _resolve_size(source: SizeSource) -> Callable[[np.random.Generator], int]:
    k = _fixed_size(source)
    if k is not None:
        return lambda rng: k
    if hasattr(source, "sample"):
        return source.sample
    return source


def _draw_size_batch(
    source: SizeSource, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Per-trial participant counts as one vector (batch-path sampling).

    Any source exposing ``sample_many`` (distributions, arrival models)
    is drawn in one vectorized call; bare callables fall back to the
    per-trial loop.  Counts keep their dtype: the engines refuse
    non-integer ones rather than truncate them.
    """
    k = _fixed_size(source)
    if k is not None:
        return np.full(trials, k, dtype=np.int64)
    if hasattr(source, "sample_many"):
        return np.asarray(source.sample_many(rng, trials))
    return np.asarray([source(rng) for _ in range(trials)])


def _summarize(solved_rounds: list[int], trials: int) -> RoundsEstimate:
    """The estimate of a scalar loop: its solving rounds over ``trials``."""
    return RoundsEstimate(
        rounds=(
            Summary.from_samples(solved_rounds)
            if solved_rounds
            else Summary.empty()
        ),
        success=ProportionEstimate(successes=len(solved_rounds), trials=trials),
    )


def estimate_uniform_rounds(
    protocol: UniformFactory,
    size_source: SizeSource,
    rng: np.random.Generator,
    *,
    channel: Channel,
    trials: int,
    max_rounds: int,
    batch: bool | None = None,
) -> RoundsEstimate:
    """Rounds-to-success statistics for a uniform protocol.

    ``protocol`` may be a protocol instance (sessions are created per
    trial) or a zero-argument factory invoked per trial (needed when the
    protocol itself depends on per-trial data).  ``size_source`` may be a
    fixed ``k``, a :class:`SizeDistribution` (a fresh ``k`` is drawn per
    trial - the paper's Section 2 setting) or a callable.

    ``batch`` selects the execution substrate: ``None`` (default) uses
    the vectorized batch engine whenever the protocol is a batchable
    instance, ``True`` insists on it (raising for protocols that cannot
    batch), ``False`` forces the scalar reference loop.  Factory
    protocols always run scalar - a factory may build per-trial state the
    lockstep engine cannot share.  A batch run is a one-point
    :func:`estimate_uniform_rounds_many` call.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if route(protocol, batch).engine != ENGINE_SCALAR_UNIFORM:
        return estimate_uniform_rounds_many(
            [protocol],
            [size_source],
            [rng],
            channel=channel,
            trials=trials,
            max_rounds=max_rounds,
        )[0]

    make_protocol = _resolve_protocol(protocol)
    draw_size = _resolve_size(size_source)
    solved_rounds: list[int] = []
    for _ in range(trials):
        k = draw_size(rng)
        result = run_uniform(
            make_protocol(), k, rng, channel=channel, max_rounds=max_rounds
        )
        if result.solved:
            solved_rounds.append(result.rounds)
    return _summarize(solved_rounds, trials)


def estimate_uniform_rounds_many(
    protocols: Sequence[UniformProtocol],
    size_sources: Sequence[SizeSource],
    rngs: Sequence[np.random.Generator],
    *,
    channel: Channel,
    trials: int,
    max_rounds: int,
) -> list[RoundsEstimate]:
    """Estimate many uniform-protocol points in one stacked engine run.

    The fused counterpart of calling :func:`estimate_uniform_rounds` once
    per point: point ``j`` pairs ``protocols[j]`` with ``size_sources[j]``
    and its own generator ``rngs[j]``.  All points must route to the
    *same* batch engine - either every protocol publishes its
    :meth:`~repro.core.protocol.UniformProtocol.batch_schedule`
    (:func:`~repro.channel.batch.run_schedule_stacked`) or every protocol
    is a feedback-driven deterministic-session one
    (:func:`~repro.channel.batch.run_history_stacked`, which also shares
    one memoized history trie across points with equal
    ``history_signature()``s).  Per-point randomness is consumed exactly
    as the solo estimator consumes it - the size batch first, then one
    uniform per live trial per round - so entry ``j`` of the result is
    **bit-identical** to the solo call; the stacking only amortizes the
    per-round engine work across points.
    """
    if not (len(protocols) == len(size_sources) == len(rngs)):
        raise ValueError(
            "need one protocol, size source and rng per point; got "
            f"{len(protocols)}/{len(size_sources)}/{len(rngs)}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    engines = set()
    for protocol in protocols:
        engine = route(protocol).engine
        if engine not in (ENGINE_BATCH_SCHEDULE, ENGINE_BATCH_HISTORY):
            raise ValueError(
                f"protocol {getattr(protocol, 'name', protocol)!r} cannot "
                "batch; fuse only batch-schedule or batch-history points"
            )
        engines.add(engine)
        _check_channel(protocol.requires_collision_detection, channel)
    if len(engines) != 1:
        raise ValueError(
            "stacked points must share one engine; got a mix of "
            f"{', '.join(sorted(engines))}"
        )
    ks_list = [
        _draw_size_batch(source, rng, trials)
        for source, rng in zip(size_sources, rngs)
    ]
    if engines.pop() == ENGINE_BATCH_SCHEDULE:
        results = run_schedule_stacked(
            [protocol.batch_schedule() for protocol in protocols],
            ks_list,
            rngs,
            channel=channel,
            max_rounds=max_rounds,
        )
    else:
        results = run_history_stacked(
            protocols, ks_list, rngs, channel=channel, max_rounds=max_rounds
        )
    return [
        RoundsEstimate(
            rounds=result.rounds_summary(), success=result.success_estimate()
        )
        for result in results
    ]


def estimate_success_within(
    protocol: UniformFactory,
    size_source: SizeSource,
    rng: np.random.Generator,
    *,
    channel: Channel,
    trials: int,
    budget_rounds: int,
    batch: bool | None = None,
) -> ProportionEstimate:
    """Probability of solving within ``budget_rounds``.

    The estimator behind every constant-probability claim (Theorems 2.12
    and 2.16): run one-shot executions capped at the theorem's budget and
    count successes.  ``batch`` selects the substrate as in
    :func:`estimate_uniform_rounds`.
    """
    estimate = estimate_uniform_rounds(
        protocol,
        size_source,
        rng,
        channel=channel,
        trials=trials,
        max_rounds=budget_rounds,
        batch=batch,
    )
    return estimate.success


def estimate_player_rounds(
    protocol: PlayerProtocol,
    participant_source: Callable[[np.random.Generator], frozenset[int]],
    n: int,
    rng: np.random.Generator,
    *,
    channel: Channel,
    advice_function: AdviceFunction | None = None,
    trials: int,
    max_rounds: int,
    batch: bool | None = None,
) -> RoundsEstimate:
    """Rounds-to-success statistics for an identity-aware protocol.

    ``participant_source`` draws a participant set per trial (typically an
    :class:`~repro.channel.network.Adversary` bound to a size schedule).

    ``batch`` selects the execution substrate with the same semantics as
    :func:`estimate_uniform_rounds`: ``None`` (default) uses the
    vectorized player engine (:mod:`repro.channel.batch_players`)
    whenever the protocol implements the ``batch_sessions`` capability
    hook, ``True`` insists on it (raising ``ValueError`` for protocols
    that cannot batch), ``False`` forces the scalar per-player reference
    loop.  On the batch path all participant sets are drawn first, then
    all advice strings - the same per-call draws as the scalar loop in a
    different stream order, so deterministic protocols agree exactly
    under a deterministic advice function and randomized ones agree
    statistically.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    engine = route(protocol, batch, model=channel.active_model).engine
    if engine == ENGINE_BATCH_PLAYER:
        participant_sets = [participant_source(rng) for _ in range(trials)]
        result = run_players_batch(
            protocol,
            participant_sets,
            n,
            rng,
            channel=channel,
            advice_function=advice_function,
            max_rounds=max_rounds,
        )
        return RoundsEstimate(
            rounds=result.rounds_summary(), success=result.success_estimate()
        )
    solved_rounds: list[int] = []
    for _ in range(trials):
        participants = participant_source(rng)
        result = run_players(
            protocol,
            participants,
            n,
            rng,
            channel=channel,
            advice_function=advice_function,
            max_rounds=max_rounds,
        )
        if result.solved:
            solved_rounds.append(result.rounds)
    return _summarize(solved_rounds, trials)


def estimate_player_rounds_many(
    protocol: PlayerProtocol,
    participant_sources: Sequence[Callable[[np.random.Generator], frozenset[int]]],
    n: int,
    rngs: Sequence[np.random.Generator],
    *,
    channel: Channel,
    advice_functions: Sequence[AdviceFunction | None],
    trials: int,
    max_rounds: int,
) -> list[RoundsEstimate]:
    """Estimate many player-protocol points in one stacked engine run.

    The fused counterpart of calling :func:`estimate_player_rounds` once
    per point, for points sharing one protocol whose :func:`route` has a
    stacked engine (randomness-free batch sessions - deterministic scan /
    tree descent and their fallback wrappers - under a model that draws
    no fault randomness) but differing in adversary, advice quality or
    seed.  Point ``j`` first draws its participant sets, then its advice
    (one :meth:`~repro.core.advice.AdviceFunction.advise_many` call),
    from its own ``rngs[j]`` - exactly the solo estimator's consumption
    order; the engine itself draws nothing, so entry ``j`` of the result
    is **bit-identical** to the solo call.
    """
    if not (len(participant_sources) == len(rngs) == len(advice_functions)):
        raise ValueError(
            "need one participant source, advice function and rng per "
            f"point; got {len(participant_sources)}/{len(advice_functions)}/"
            f"{len(rngs)}"
        )
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    model = channel.active_model
    if route(protocol, model=model).fused is None:
        raise ValueError(
            f"protocol {protocol.name!r} under channel model "
            f"{getattr(model, 'name', None)!r} has no stacked (fused) player "
            "engine; run its points through estimate_player_rounds"
        )
    all_sets: list[frozenset[int]] = []
    all_advice: list[np.ndarray] = []
    for source, advice_function, rng in zip(
        participant_sources, advice_functions, rngs
    ):
        advice_source = checked_advice_source(protocol, advice_function)
        point_sets = [source(rng) for _ in range(trials)]
        all_sets.extend(point_sets)
        all_advice.append(advice_source.advise_many(point_sets, n))
    stacked = run_players_stacked(
        protocol, all_sets, n, np.concatenate(all_advice), channel=channel,
        max_rounds=max_rounds,
    )
    estimates = []
    for point in range(len(rngs)):
        segment = stacked.sliced(point * trials, (point + 1) * trials)
        estimates.append(
            RoundsEstimate(
                rounds=segment.rounds_summary(),
                success=segment.success_estimate(),
            )
        )
    return estimates
