"""Open-system scenarios: declarative specs and sweeps over offered load.

The open-system counterpart of the spec/runner/sweep stack: an
:class:`OpenScenarioSpec` names a protocol (registry id), a streaming
arrival process (:data:`repro.opensys.arrivals.ARRIVAL_FAMILIES`), a
channel, and the open-run knobs (rounds, warmup, capacity, timeout,
seed); :func:`run_open_scenario` resolves and executes it through the
open-loop driver (:func:`repro.opensys.driver.run_open`).  A
:class:`~repro.scenarios.sweep.Sweep` over an open base - most usefully
over ``arrivals.params.rate`` - runs through
:func:`~repro.scenarios.sweep.run_sweep` into the load -> latency curves
that are the whole point of the subsystem.

The same design rules as the closed layer apply: specs are pure
JSON-native data (``from_json(to_json())`` is the identity), a spec plus
its seed fully determines the result, and grid overrides re-validate
through ``from_dict`` so a sweep can never build a point that would not
load from JSON.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..channel.channel import Channel
from ..core.protocol import UniformProtocol
from ..opensys.arrivals import ARRIVAL_FAMILIES, ArrivalProcess
from ..opensys.driver import run_open
from ..opensys.latency import LatencyStore, LatencySummary
from ..opensys.policies import (
    ADMISSION_POLICIES,
    RETRY_POLICIES,
    AdmissionPolicy,
    RetryPolicy,
)
from .registry import PLAYER, BuildContext, build_protocol, get_protocol
from .runner import route_point
from .spec import (
    _BATCH,
    _COUNT,
    _INT64,
    _N,
    _SEED,
    _STRING,
    ChannelSpec,
    FieldRule,
    JsonCodec,
    NamedSpec,
    PredictionSpec,
    ProtocolSpec,
    ScenarioError,
    SpecCodec,
    _require_mapping,
)
from .workloads import resolve_prediction

__all__ = [
    "ArrivalSpec",
    "RetrySpec",
    "AdmissionSpec",
    "OpenScenarioSpec",
    "OpenScenarioResult",
    "ResolvedOpenScenario",
    "resolve_open_scenario",
    "run_open_scenario",
]


@dataclass(frozen=True)
class ArrivalSpec(NamedSpec):
    """A streaming arrival process: family name plus parameters.

    Families are the :data:`repro.opensys.arrivals.ARRIVAL_FAMILIES`
    registry (``poisson``, ``zipf-hotspot``, ``bursty``, ``trace``).
    Validated eagerly - the process is built and discarded at
    construction - so malformed specs fail before any simulation runs.
    :meth:`build` returns the :class:`~repro.opensys.arrivals.ArrivalProcess`.
    """

    family: str
    params: dict = field(default_factory=dict)

    name_key = "family"
    label = "arrival"
    builder = ARRIVAL_FAMILIES.build


@dataclass(frozen=True)
class RetrySpec(NamedSpec):
    """A retry policy: registry kind plus parameters.

    Kinds are the :data:`repro.opensys.policies.RETRY_POLICIES` registry
    (``give-up``, ``immediate``, ``backoff``).  Validated eagerly, like
    :class:`ArrivalSpec`; :meth:`build` returns the
    :class:`~repro.opensys.policies.RetryPolicy`.
    """

    kind: str
    params: dict = field(default_factory=dict)

    name_key = "kind"
    label = "retry"
    builder = RETRY_POLICIES.build


@dataclass(frozen=True)
class AdmissionSpec(NamedSpec):
    """An admission policy: registry kind plus parameters.

    Kinds are the :data:`repro.opensys.policies.ADMISSION_POLICIES`
    registry (``capacity``, ``token-bucket``, ``shed``); same eager
    validation as :class:`RetrySpec`.
    """

    kind: str
    params: dict = field(default_factory=dict)

    name_key = "kind"
    label = "admission"
    builder = ADMISSION_POLICIES.build


@dataclass(frozen=True)
class OpenScenarioSpec(SpecCodec):
    """One open-system simulation, ready to serialize or run.

    Attributes
    ----------
    protocol:
        Registry reference of the (uniform) protocol under test.
    arrivals:
        Streaming request source.
    channel:
        Collision-detection capability plus optional fault model.
    n:
        Network-size context handed to protocol construction (board size
        for prediction protocols); the live population is emergent.
    trials:
        Independent open channels to simulate.
    rounds:
        Rounds each channel is observed for.
    warmup:
        Completions of requests arriving in rounds ``1..warmup`` are not
        measured (transient before the backlog reaches steady state).
    capacity:
        Maximum pending requests per channel; overflow arrivals drop.
    timeout:
        Optional per-request round budget - a request abandons (counted,
        not measured) after this many rounds in the system.
    retry:
        What a refused or timed-out request does next (default
        ``give-up``: it dies, exactly the pre-policy behaviour).
    admission:
        Gate in front of the service buffer (default ``capacity``: the
        hard buffer limit is the only gate).
    seed / batch / prediction / name:
        As in :class:`~repro.scenarios.spec.ScenarioSpec`; prediction
        source ``"truth"`` is rejected (an open scenario has no workload
        distribution to be clairvoyant about - use ``"distribution"``).
    """

    protocol: ProtocolSpec
    arrivals: ArrivalSpec
    channel: ChannelSpec
    n: int
    trials: int
    rounds: int
    warmup: int = 0
    capacity: int = 256
    timeout: int | None = None
    retry: RetrySpec = field(default_factory=lambda: RetrySpec(kind="give-up"))
    admission: AdmissionSpec = field(
        default_factory=lambda: AdmissionSpec(kind="capacity")
    )
    seed: int = 2021
    batch: bool | None = None
    prediction: PredictionSpec | None = None
    name: str = ""

    json_label = "open scenario"
    field_rules = {
        "protocol": FieldRule(ProtocolSpec),
        "arrivals": FieldRule(ArrivalSpec),
        "channel": FieldRule(ChannelSpec),
        "n": _N,
        "trials": _COUNT,
        "rounds": _COUNT,
        "warmup": _INT64,
        "capacity": _COUNT,
        "timeout": FieldRule(int, nullable=True, at_least=1),
        "retry": FieldRule(RetrySpec),
        "admission": FieldRule(AdmissionSpec),
        "seed": _SEED,
        "batch": _BATCH,
        "prediction": FieldRule(PredictionSpec, nullable=True),
        "name": _STRING,
    }

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.warmup < self.rounds:
            raise ScenarioError(
                f"warmup must be in [0, rounds), got {self.warmup} of "
                f"{self.rounds}"
            )

    def label(self) -> str:
        """Short human-readable identity for tables and progress lines."""
        return self.name or f"{self.protocol.id}/{self.arrivals.family}"


@dataclass
class ResolvedOpenScenario:
    """An open spec resolved into runnable objects, not yet executed."""

    spec: OpenScenarioSpec
    channel: Channel
    protocol: UniformProtocol
    arrivals: ArrivalProcess
    retry: RetryPolicy
    admission: AdmissionPolicy
    engine: str

    def metadata(self) -> dict:
        offered = self.arrivals.offered_load
        return {
            "protocol": self.protocol.name,
            "kind": "uniform",
            "channel": self.channel.kind,
            "channel_model": self.channel.model_label(),
            "arrivals": self.arrivals.name,
            "offered_load": None if math.isnan(offered) else offered,
            "retry": self.retry.name,
            "admission": self.admission.name,
            "engine": self.engine,
            "batch_requested": self.spec.batch,
        }


def resolve_open_scenario(spec: OpenScenarioSpec) -> ResolvedOpenScenario:
    """Resolve an open spec, raising :class:`ScenarioError` where a run would.

    Rejects player protocols (an open channel serves anonymous uniform
    epochs; per-player identity has no meaning there), clairvoyant
    ``"truth"`` predictions, and fault models the open driver cannot
    express - all before any randomness is consumed.
    """
    channel = spec.channel.build()

    entry = get_protocol(spec.protocol.id)
    if entry.kind == PLAYER:
        raise ScenarioError(
            f"open scenarios run uniform protocols only; "
            f"{spec.protocol.id!r} is a player protocol"
        )
    if spec.prediction is not None and spec.prediction.source == "truth":
        raise ScenarioError(
            "open scenarios have no workload distribution for prediction "
            "source 'truth'; supply an explicit source 'distribution'"
        )
    prediction = resolve_prediction(spec.prediction, None, spec.n)
    protocol = build_protocol(
        spec.protocol, BuildContext(n=spec.n, prediction=prediction)
    )
    assert isinstance(protocol, UniformProtocol)
    engine = route_point(
        protocol, spec.batch, channel.active_model, open_system=True
    ).engine
    return ResolvedOpenScenario(
        spec=spec,
        channel=channel,
        protocol=protocol,
        arrivals=spec.arrivals.build(),
        retry=spec.retry.build(),
        admission=spec.admission.build(),
        engine=engine,
    )


@dataclass
class OpenScenarioResult(JsonCodec):
    """Outcome of one open-system run, ready to serialize.

    Carries the full :class:`~repro.opensys.latency.LatencyStore` (not
    just its summary) so results merge: two shards of the same spec run
    at different ``trial_offset``\\ s combine with ``store.merge`` into
    exactly the unsharded result's store.
    """

    spec: OpenScenarioSpec
    engine: str
    store: LatencyStore
    metadata: dict = field(default_factory=dict)
    elapsed_seconds: float = field(default=0.0, compare=False)

    json_label = "open scenario result"

    @property
    def summary(self) -> LatencySummary:
        return self.store.summary()

    def sweep_row(self) -> dict:
        """This point's cells on the load -> latency curve, by column."""
        summary = self.summary
        offered = self.metadata.get("offered_load")
        return {
            "point": self.spec.label(),
            "engine": self.engine,
            "load": float("nan") if offered is None else offered,
            "p50": summary.p50,
            "p90": summary.p90,
            "p99": summary.p99,
            "throughput": summary.throughput,
            "dropped": summary.dropped,
            "timed-out": summary.timed_out,
            "retried": summary.retried,
            "abandoned": summary.abandoned,
        }

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "engine": self.engine,
            "store": self.store.to_dict(),
            "summary": self.store.summary().to_dict(),
            "metadata": dict(self.metadata),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "OpenScenarioResult":
        return cls(
            spec=OpenScenarioSpec.from_dict(data["spec"]),
            engine=str(data["engine"]),
            store=LatencyStore.from_dict(
                _require_mapping(data["store"], "latency store")
            ),
            metadata=dict(data.get("metadata", {})),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )

    @classmethod
    def from_saved(cls, data: Mapping) -> "OpenScenarioResult":
        """Read back a result a store entry or journal line saved.

        :meth:`from_dict` rebuilds the result from its store alone; a
        saved copy must also carry the summary its store gives (or no
        ``summary``), or a :class:`ValueError` names the first field
        that differs.
        """
        result = cls.from_dict(data)
        if "summary" in data:
            saved = _require_mapping(data["summary"], "latency summary")
            saved = LatencySummary.from_dict(saved).to_dict()
            for name, value in result.summary.to_dict().items():
                if saved[name] != value:
                    raise ValueError(
                        f"open result summary {name} is {saved[name]!r}, "
                        f"but its store gives {value!r}"
                    )
        return result

    def render(self) -> str:
        """Human-readable report for the CLI."""
        summary = self.summary
        offered = self.metadata.get("offered_load")
        load = "n/a" if offered is None else f"{offered:.4g} req/round"
        lines = [
            f"open scenario: {self.spec.label()}",
            f"  protocol: {self.metadata.get('protocol', self.spec.protocol.id)}"
            f"    channel: {self.metadata.get('channel', self.spec.channel.kind)}"
            f" ({self.metadata.get('channel_model', 'faithful')})",
            f"  arrivals: {self.metadata.get('arrivals', self.spec.arrivals.family)}"
            f"    offered load: {load}",
            f"  policies: retry={self.metadata.get('retry', self.spec.retry.kind)}"
            f"    admission="
            f"{self.metadata.get('admission', self.spec.admission.kind)}",
            f"  engine:   {self.engine}    trials: {self.spec.trials}"
            f"    rounds: {self.spec.rounds} (warmup {self.spec.warmup})"
            f"    seed: {self.spec.seed}",
            f"  latency:  {summary.render()}",
            f"  elapsed:  {self.elapsed_seconds:.3f}s",
        ]
        return "\n".join(lines)


def run_open_scenario(spec: OpenScenarioSpec) -> OpenScenarioResult:
    """Execute one open scenario and return its serializable result."""
    started = time.perf_counter()
    resolved = resolve_open_scenario(spec)
    outcome = run_open(
        resolved.protocol,
        resolved.arrivals,
        channel=resolved.channel,
        trials=spec.trials,
        rounds=spec.rounds,
        warmup=spec.warmup,
        capacity=spec.capacity,
        timeout=spec.timeout,
        retry=resolved.retry,
        admission=resolved.admission,
        seed=spec.seed,
        batch=spec.batch,
    )
    metadata = resolved.metadata()
    metadata["engine"] = outcome.engine
    return OpenScenarioResult(
        spec=spec,
        engine=outcome.engine,
        store=outcome.store,
        metadata=metadata,
        elapsed_seconds=time.perf_counter() - started,
    )
