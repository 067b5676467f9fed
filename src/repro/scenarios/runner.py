"""The single simulation entry point: resolve a spec, route, execute.

:func:`run_scenario` turns a :class:`~repro.scenarios.spec.ScenarioSpec`
into a :class:`ScenarioResult`: it resolves the workload, prediction,
advice and protocol, then routes to the right execution engine through
:func:`~repro.analysis.montecarlo.route` - the vectorized
batch-schedule, history-indexed (trie-memoized CD) or batch-player
engines, or the scalar uniform / per-player reference loops - and
records which engine actually ran in the result metadata.  Experiments,
the CLI and the sweep executors all call this one facade, so a scenario
behaves identically however it is launched.

Results are JSON-round-trippable (:meth:`ScenarioResult.to_dict` /
``from_dict``), and a spec plus its seed fully determines the result:
re-loading a serialized spec and re-running reproduces the tables
bit-for-bit.  The durability layer leans on both halves of that
contract: the content-addressed result store
(:func:`~repro.scenarios.store.spec_key`) uses the canonical spec JSON
as the *complete* identity of a result, journal resume replays
serialized results in place of re-execution, and the supervised
executor detects corrupted worker replies by checking the spec embedded
in the deserialized result against the point it dispatched.
"""

from __future__ import annotations

import json
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from ..analysis.metrics import ProportionEstimate, Summary
from ..analysis.montecarlo import (
    Route,
    estimate_player_rounds,
    estimate_uniform_rounds,
    route,
)
from ..channel.channel import Channel
from ..core.advice import AdviceFunction
from ..core.named import Registry
from ..core.protocol import PlayerProtocol
from ..infotheory.distributions import SizeDistribution
from .registry import PLAYER, BuildContext, build_protocol, get_protocol
from .spec import JsonCodec, ScenarioError, ScenarioSpec
from .workloads import resolve_prediction, resolve_workload, workload_label

__all__ = [
    "ScenarioResult",
    "ResolvedScenario",
    "run_scenario",
    "resolve_scenario",
    "package_result",
    "ADVERSARIES",
]

#: Adversary name -> its class in :mod:`repro.channel.network`, for
#: player scenarios; the first player point imports the module.
ADVERSARIES = Registry(
    "adversary",
    {
        "random": "RandomAdversary",
        "prefix": "PrefixAdversary",
        "suffix": "SuffixAdversary",
        "spread": "SpreadAdversary",
        "clustered": "ClusteredAdversary",
    },
)


@dataclass(frozen=True)
class ScenarioResult(JsonCodec):
    """Outcome of one scenario run, ready to serialize.

    Attributes
    ----------
    spec:
        The exact spec that produced this result (round-trips with it).
    engine:
        Which execution engine ran - one of the
        :mod:`repro.analysis.montecarlo` engine labels.
    rounds:
        Solving-round summary over successful trials.
    success:
        Solved-within-budget proportion with its Wilson interval.
    metadata:
        Resolution details: protocol name and kind, channel kind,
        workload label, requested batch mode.
    elapsed_seconds:
        Wall-clock execution time (excluded from equality - two runs of
        the same spec are equal results even if one machine was slower).
    """

    spec: ScenarioSpec
    engine: str
    rounds: Summary
    success: ProportionEstimate
    metadata: dict = field(default_factory=dict)
    elapsed_seconds: float = field(default=0.0, compare=False)

    json_label = "scenario result"

    def sweep_row(self) -> dict:
        """This point's sweep-table cells, keyed by column header."""
        nan = float("nan")
        return {
            "point": self.spec.label(),
            "engine": self.engine,
            "trials": self.success.trials,
            "success": self.success.rate,
            "mean rounds": self.rounds.mean if self.any_successes else nan,
            "p90": self.rounds.p90 if self.any_successes else nan,
        }

    @property
    def mean_rounds(self) -> float:
        return self.rounds.mean

    @property
    def success_rate(self) -> float:
        return self.success.rate

    @property
    def any_successes(self) -> bool:
        return self.rounds.count > 0

    def to_dict(self) -> dict:
        """JSON-native dict (NaN statistics encode as ``null``)."""
        return {
            "spec": self.spec.to_dict(),
            "engine": self.engine,
            "rounds": self.rounds.to_dict(),
            "success": self.success.to_dict(),
            "metadata": dict(self.metadata),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioResult":
        return cls(
            spec=ScenarioSpec.from_dict(data["spec"]),
            engine=str(data["engine"]),
            rounds=Summary.from_dict(data["rounds"]),
            success=ProportionEstimate.from_dict(data["success"]),
            metadata=dict(data.get("metadata", {})),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )

    def render(self) -> str:
        """Human-readable report for the CLI."""
        lines = [
            f"scenario: {self.spec.label()}",
            f"  protocol: {self.metadata.get('protocol', self.spec.protocol.id)}"
            f" ({self.metadata.get('kind', '?')})",
            f"  channel:  {self.metadata.get('channel', self.spec.channel.kind)}"
            f"    workload: {self.metadata.get('workload', self.spec.workload.kind)}",
            f"  engine:   {self.engine}    trials: {self.success.trials}"
            f"    budget: {self.spec.max_rounds} rounds    seed: {self.spec.seed}",
            f"  success:  {self.success.rate:.4f} "
            f"(Wilson 95% [{self.success.lower:.4f}, {self.success.upper:.4f}])",
        ]
        if self.any_successes:
            lines.append(
                f"  rounds:   mean {self.rounds.mean:.3f}  median "
                f"{self.rounds.median:.1f}  p90 {self.rounds.p90:.1f}  "
                f"max {self.rounds.maximum:.0f}"
            )
        else:
            lines.append("  rounds:   n/a (no trial solved within the budget)")
        lines.append(f"  elapsed:  {self.elapsed_seconds:.3f}s")
        return "\n".join(lines)


@dataclass
class ResolvedScenario:
    """A spec resolved into runnable objects, not yet executed.

    The preparation half of :func:`run_scenario`, split out so the fused
    sweep executor can resolve every point, group compatible ones, and
    execute whole groups through the stacked engines.  Resolution never
    consumes from ``rng`` (corruption wrappers are merely *bound* to it),
    so resolving all points up front leaves each point's stream exactly
    where a solo :func:`run_scenario` would start drawing.
    """

    spec: ScenarioSpec
    rng: np.random.Generator
    channel: Channel
    kind: str  # registry kind: "uniform" or "player"
    protocol: object  # UniformProtocol | PlayerProtocol
    route: Route
    size_source: object  # int | SupportsSampleMany | callable
    advice: AdviceFunction | None = None
    adversary: object | None = None

    @property
    def engine(self) -> str:
        """The per-point engine label :attr:`route` chose."""
        return self.route.engine

    def participant_source(self):
        """Per-trial participant draw (player scenarios only)."""
        adversary, n, k = self.adversary, self.spec.n, self.size_source

        def draw(generator: np.random.Generator) -> frozenset[int]:
            return adversary.checked_select(n, k, generator)

        return draw

    def metadata(self) -> dict:
        base = {
            "protocol": self.protocol.name,
            "kind": self.kind,
            "channel": self.channel.kind,
            "channel_model": self.channel.model_label(),
            "workload": workload_label(self.size_source),
            "engine": self.engine,
            "batch_requested": self.spec.batch,
        }
        if self.kind == PLAYER:
            base["adversary"] = self.adversary.name
            base["advice_bits"] = getattr(self.advice, "bits", 0)
        return base


def route_point(
    protocol, batch: bool | None, model, *, open_system: bool = False
) -> Route:
    """:func:`~repro.analysis.montecarlo.route` for a spec's point.

    Shared by the closed and open resolvers, so a point no engine can
    run fails the same way in both: a :class:`ScenarioError` naming the
    spec's ``'batch'`` request, before any randomness is consumed.
    """
    try:
        return route(protocol, batch, model=model, open_system=open_system)
    except ValueError as exc:
        raise ScenarioError(
            f"no engine runs this point ('batch' is {json.dumps(batch)}): {exc}"
        ) from exc


def _sources(spec: ScenarioSpec, shared: dict) -> tuple:
    """The spec's size source and prediction, resolved once per ``shared`` memo.

    A workload is kept when its size source cannot change as it draws
    (an ``int`` or a :class:`SizeDistribution`); a trace or bursty
    source advances with every draw, so each point resolves its own.
    A prediction is kept per (prediction, workload) pair.  Keys are the
    nested spec objects' ids; each entry holds its spec, so no id is
    reused while the memo lives.
    """
    key = (id(spec.workload), spec.n)
    size_source = shared.get(key, (spec, None))[1]
    if size_source is None:
        size_source = resolve_workload(spec.workload, spec.n)
        if isinstance(size_source, (int, SizeDistribution)):
            shared[key] = (spec, size_source)
    pair = (id(spec.prediction), *key)
    if pair not in shared:
        shared[pair] = (spec, resolve_prediction(spec.prediction, size_source, spec.n))
    return size_source, shared[pair][1]


def resolve_scenario(
    spec: ScenarioSpec,
    *,
    rng: np.random.Generator | None = None,
    shared: dict | None = None,
) -> ResolvedScenario:
    """Resolve a spec into the objects :func:`run_scenario` would execute.

    Raises :class:`ScenarioError` for anything a run would reject -
    unknown ids, missing predictions, advice on uniform protocols - so
    callers (the fused executor, validation tooling) fail before any
    point has consumed randomness.  ``shared`` is a memo a caller keeps
    across the points of one run: points whose specs share a workload
    or prediction object then share its resolved size source or
    prediction where those cannot change as they draw.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    channel = spec.channel.build()
    size_source, prediction = _sources(spec, {} if shared is None else shared)
    entry = get_protocol(spec.protocol.id)
    context = BuildContext(n=spec.n, prediction=prediction)
    protocol = build_protocol(spec.protocol, context)

    if entry.kind == PLAYER:
        from ..channel import network

        assert isinstance(protocol, PlayerProtocol)
        if not isinstance(size_source, int):
            raise ScenarioError(
                f"player protocol {spec.protocol.id!r} needs a 'fixed' "
                f"workload (the adversary picks *which* k ids participate); "
                f"got workload kind {spec.workload.kind!r}"
            )
        return ResolvedScenario(
            spec=spec,
            rng=rng,
            channel=channel,
            kind=entry.kind,
            protocol=protocol,
            route=route_point(protocol, spec.batch, channel.active_model),
            size_source=size_source,
            advice=spec.advice.build(spec.n, rng) if spec.advice else None,
            adversary=getattr(network, ADVERSARIES[spec.adversary])(),
        )
    if spec.advice is not None:
        raise ScenarioError(
            f"uniform protocol {spec.protocol.id!r} takes no advice spec "
            "(advice is a player-protocol input)"
        )
    return ResolvedScenario(
        spec=spec,
        rng=rng,
        channel=channel,
        kind=entry.kind,
        protocol=protocol,
        route=route_point(protocol, spec.batch, channel.active_model),
        size_source=size_source,
    )


def package_result(
    resolved: ResolvedScenario,
    estimate,
    *,
    engine: str | None = None,
    elapsed_seconds: float = 0.0,
) -> ScenarioResult:
    """Wrap an estimate into the :class:`ScenarioResult` a run returns.

    ``engine`` overrides the recorded label (the fused executor stamps
    ``fused-schedule`` / ``fused-player`` over the per-point routing
    label); statistics and spec are untouched either way.
    """
    metadata = resolved.metadata()
    label = engine if engine is not None else resolved.engine
    metadata["engine"] = label
    return ScenarioResult(
        spec=resolved.spec,
        engine=label,
        rounds=estimate.rounds,
        success=estimate.success,
        metadata=metadata,
        elapsed_seconds=elapsed_seconds,
    )


def run_scenario(
    spec: ScenarioSpec, *, rng: np.random.Generator | None = None
) -> ScenarioResult:
    """Execute one scenario and return its serializable result.

    ``rng`` defaults to a fresh generator seeded from ``spec.seed`` - the
    standalone, reproducible-from-JSON mode.  Experiments composing many
    scenarios into one measurement pass their shared generator instead,
    which keeps the RNG stream (and hence every table) identical to
    hand-wired estimator calls in the same order.
    """
    started = time.perf_counter()
    resolved = resolve_scenario(spec, rng=rng)

    if resolved.kind == PLAYER:
        estimate = estimate_player_rounds(
            resolved.protocol,
            resolved.participant_source(),
            spec.n,
            resolved.rng,
            channel=resolved.channel,
            advice_function=resolved.advice,
            trials=spec.trials,
            max_rounds=spec.max_rounds,
            batch=spec.batch,
        )
    else:
        estimate = estimate_uniform_rounds(
            resolved.protocol,
            resolved.size_source,
            resolved.rng,
            channel=resolved.channel,
            trials=spec.trials,
            max_rounds=spec.max_rounds,
            batch=spec.batch,
        )
    return package_result(
        resolved,
        estimate,
        elapsed_seconds=time.perf_counter() - started,
    )
