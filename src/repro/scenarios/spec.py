"""Declarative, serializable scenario specifications.

A :class:`ScenarioSpec` is the complete, JSON-round-trippable description
of one simulation: which protocol (by registry id + parameters), which
channel, which workload, what prediction / advice quality, and the
trials / round-budget / seed knobs.  Resolving and executing a spec is
the runner's job (:mod:`repro.scenarios.runner`); this module is pure
data, so specs can be stored, diffed, swept over and shipped across
process boundaries.  :func:`spec_family` maps a closed or open-system
spec (or its parsed JSON) to its spec, runner and result types,
importing the runner only when asked.

Design rules:

* every field is a JSON-native value or a nested spec of JSON-native
  values - ``spec.from_json(spec.to_json())`` is the identity;
* every field is checked once, in its class's ``__post_init__`` (or
  field table), so a spec built in Python passes the same gate, with
  the same messages, as one loaded from JSON; ``from_dict`` only
  refuses non-mappings, unknown keys and missing required keys;
* a spec plus its ``seed`` fully determines the result: two processes
  loading the same JSON produce bit-identical
  :class:`~repro.scenarios.runner.ScenarioResult` tables;
* cross-field requirements (e.g. prediction protocols needing a
  prediction spec) are enforced at *resolution* time, keeping the data
  layer decoupled from the protocol registry.
"""

from __future__ import annotations

import copy
import itertools
import json
import operator
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import MISSING, dataclass, field
from typing import Any, ClassVar

import numpy as np

from .. import core
from ..core.named import Params, Registry, ScenarioError

__all__ = [
    "ScenarioError",
    "JsonCodec",
    "FieldRule",
    "SpecCodec",
    "NamedSpec",
    "ProtocolSpec",
    "ChannelSpec",
    "WorkloadSpec",
    "PredictionSpec",
    "AdviceSpec",
    "ScenarioSpec",
    "SpecFamily",
    "spec_family",
]


#: Largest count the engines' int64 arrays hold.
_INT64_MAX = 2**63 - 1


def _require_mapping(data: object, what: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{what} must be a mapping, got {type(data).__name__}")
    return data


def _check_known_keys(data: Mapping, allowed: set[str], what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ScenarioError(
            f"unknown {what} field(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _integer(value: object, label: str) -> int:
    """``value`` as a Python int, refusing anything else.

    Python and NumPy integers pass (``operator.index``) and come back as
    ``int``; bools, floats, numeric strings and every other type raise a
    :class:`ScenarioError` naming ``label`` instead of being coerced.
    """
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):
        raise ScenarioError(
            f"{label} must be an integer, got {type(value).__name__} {value!r}"
        )
    return number


#: Types JSON writes as they are.  Exact types: NumPy's ``float64`` is a
#: ``float`` subclass, yet it is stored as a plain ``float`` too.
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_mapping(data: object, what: str) -> dict:
    """A copy of mapping ``data`` holding only JSON values, at any depth.

    NumPy scalars and arrays come back as ``int``, ``float``, ``bool``
    and lists, tuples as lists, and every container is fresh, so a spec
    never shares one with its caller.  Anything else JSON cannot encode
    (a set, an object, a non-string key) is a :class:`ScenarioError`
    naming ``what`` and the key.
    """

    def native(value: object, path: str) -> object:
        if isinstance(value, Mapping):
            copied = {}
            for key, item in value.items():
                if not isinstance(key, str):
                    raise ScenarioError(f"{what} keys must be strings, got {key!r}")
                if type(item) not in _JSON_SCALARS:
                    item = native(item, f"{path}.{key}" if path else key)
                copied[key] = item
            return copied
        if isinstance(value, np.ndarray):
            return native(value.tolist(), path)  # a 0-d array lists as a scalar
        if isinstance(value, (list, tuple)):
            return [
                item if type(item) in _JSON_SCALARS else native(item, path)
                for item in value
            ]
        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, (str, int, float, type(None))):
            return value
        raise ScenarioError(
            f"{what} {path!r} must hold JSON values, got "
            f"{type(value).__name__} {value!r}"
        )

    return native(_require_mapping(data, what), "")


def _with_path(data: dict, path: str, value: Any) -> dict:
    """A copy of ``data``, one field's JSON, with ``value`` at dotted ``path``.

    ``path`` starts with the field's name.  Values go in as they are:
    the spec built from the result copies every container it keeps.
    Each mapping the path passes through is copied first, so a path
    never writes into a mapping an earlier path set, which belongs to
    the caller (a sweep's grid, say).  A missing or null key starts an
    empty mapping; a path through any other value would drop it, so it
    is a :class:`ScenarioError`.
    """
    parts = path.split(".")
    data = node = dict(data)
    for depth, part in enumerate(parts[1:-1], start=2):
        child = node.get(part)
        if child is None:
            child = {}
        elif not isinstance(child, dict):
            raise ScenarioError(
                f"path {path!r} runs through {'.'.join(parts[:depth])!r}, which "
                f"holds {type(child).__name__} {child!r}, not a mapping"
            )
        child = dict(child)
        node[part] = child
        node = child
    node[parts[-1]] = value
    return data


class JsonCodec:
    """``to_json`` / ``from_json`` over a class's ``to_dict`` / ``from_dict``.

    ``json_label`` names the document in the :class:`ScenarioError` that
    text which is not JSON raises.
    """

    json_label: ClassVar[str]

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str):
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as error:
            raise ScenarioError(f"invalid {cls.json_label} JSON: {error}") from None
        return cls.from_dict(data)


@dataclass(frozen=True)
class FieldRule:
    """What one field of a top-level spec holds, checked at construction.

    ``kind`` is ``int``, ``bool``, ``str`` or a nested spec class, which
    :meth:`SpecCodec.from_dict` loads with the class's own ``from_dict``
    and :meth:`SpecCodec.to_dict` writes with the value's ``to_dict``.
    ``None`` passes only when ``nullable``.  An ``int`` lies in the
    JSON range ``[minimum, maximum]`` (by default int64's, the engines'
    count arrays) and is at least the spec's bound ``at_least``, whose
    message names the field bare.
    """

    kind: type
    nullable: bool = False
    at_least: int | None = None
    minimum: int | None = None
    maximum: int | None = _INT64_MAX

    def check(self, value: object, name: str, what: str) -> object:
        """Field ``name`` of a ``what`` if admitted, a NumPy integer as ``int``."""
        kind = self.kind
        if type(value) is not kind:
            if value is None and self.nullable:
                return None
            label = f"{what} field {name!r}"
            if kind is bool and self.nullable:
                raise ScenarioError(
                    f"{label} must be true, false or null, got "
                    f"{type(value).__name__} {value!r}"
                )
            if kind is not int:
                return Params.check(value, kind, label)
            value = _integer(value, label)
        elif kind is not int:
            return value
        if self.minimum is not None and value < self.minimum:
            raise ScenarioError(
                f"{what} field {name!r} must be >= {self.minimum}, got {value}"
            )
        if self.maximum is not None and value > self.maximum:
            raise ScenarioError(
                f"{what} field {name!r} must fit in int64 (<= {self.maximum}), "
                f"got {value}"
            )
        if self.at_least is not None and value < self.at_least:
            bound = f"{self.at_least} or None" if self.nullable else self.at_least
            raise ScenarioError(f"{name} must be >= {bound}, got {value}")
        return value


#: Rules of fields both top-level specs have, and of a few others.
_FLAG = FieldRule(bool)
_INT64 = FieldRule(int)
_N = FieldRule(int, at_least=2)
_COUNT = FieldRule(int, at_least=1)
_SEED = FieldRule(int, minimum=0, maximum=None)
_BATCH = FieldRule(bool, nullable=True)
_STRING = FieldRule(str)


class SpecCodec(JsonCodec):
    """``to_dict``, ``from_dict`` and ``override`` of a top-level spec.

    A subclass is a frozen dataclass whose ``field_rules`` maps each of
    its fields, in field order, to a :class:`FieldRule`; ``json_label``
    names it in messages.  Every field passes its rule in
    ``__post_init__``, so keyword construction, ``dataclasses.replace``,
    JSON and :meth:`override` all pass one gate.  :meth:`to_dict` keys
    follow field order, which the CLI's ``--json`` output and the
    pinned ``spec_key``\\ s depend on.
    """

    field_rules: ClassVar[dict[str, FieldRule]]
    #: The rules whose kind is a nested spec, taken from ``field_rules``.
    nested_rules: ClassVar[dict[str, FieldRule]]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.nested_rules = {
            name: rule
            for name, rule in cls.field_rules.items()
            if rule.kind not in (int, bool, str)
        }

    def __post_init__(self) -> None:
        """Check each field against its rule; NumPy integers become ``int``."""
        what = f"{self.json_label} spec"
        for name, rule in self.field_rules.items():
            value = getattr(self, name)
            checked = rule.check(value, name, what)
            if checked is not value:
                object.__setattr__(self, name, checked)

    def to_dict(self) -> dict:
        """JSON-native dict; ``from_dict`` inverts it exactly.

        A frozen dataclass's instance dict holds its fields and nothing
        else, in field order, so one copy of it takes every scalar.
        """
        data = dict(vars(self))
        for name in self.nested_rules:
            value = data[name]
            if value is not None:
                data[name] = value.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping):
        what = f"{cls.json_label} spec"
        data = _require_mapping(data, what)
        _check_known_keys(data, cls.field_rules.keys(), what)
        for name, spec_field in cls.__dataclass_fields__.items():
            if (
                name not in data
                and spec_field.default is MISSING
                and spec_field.default_factory is MISSING
            ):
                raise ScenarioError(f"{what} needs {name!r}")
        values = dict(data)
        for name, rule in cls.nested_rules.items():
            if name in values and (values[name] is not None or not rule.nullable):
                values[name] = rule.kind.from_dict(values[name])
        return cls(**values)

    def override(self, overrides: Mapping[str, Any]):
        """A new spec with dotted-path fields replaced.

        Keys are dotted paths into :meth:`to_dict` - e.g. ``"trials"``,
        ``"workload.params.k"``, ``"arrivals.params.rate"``.  The result
        is the spec :meth:`from_dict` builds from the overridden
        :meth:`to_dict`, with the same checks in the same order and the
        same messages, so an override can never produce a spec that
        would not load from JSON.  Only the fields the paths reach are
        re-parsed; every other field keeps its object.  Intermediate
        mappings are created as needed (overriding
        ``"prediction.source"`` on a spec without a prediction starts
        one from an empty mapping); a path after a shorthand edits the
        spec the shorthand names, and a path through any other value
        fails rather than drop it.
        """
        cell = [[value] for value in overrides.values()]
        (values,) = self.field_values(list(overrides), cell)
        return self.rebuilt(values)

    def field_values(self, paths: list[str], grid: list[list]) -> Iterator[dict]:
        """The parsed fields ``paths`` reach in each cell of ``grid``'s product.

        ``grid[i]`` holds the values of ``paths[i]``; cells come in
        row-major order, each as ``{field: value}`` in field order, ready
        for :meth:`rebuilt`.  The checks are :meth:`from_dict`'s, in its
        order: a path into no field first, then each nested field reached,
        in field order.  A field is parsed once per distinct combination
        of its paths' values, so cells share nested spec objects.
        """
        reached: dict[str, list[int]] = {}
        for position, path in enumerate(paths):
            reached.setdefault(path.split(".", 1)[0], []).append(position)
        _check_known_keys(reached, self.field_rules.keys(), f"{self.json_label} spec")
        touched = [(f, reached[f]) for f in self.field_rules if f in reached]
        parsed: dict[tuple, object] = {}
        for cell in itertools.product(*(range(len(values)) for values in grid)):
            values = {}
            for name, at in touched:
                key = (name, *(cell[p] for p in at))
                if key not in parsed:
                    items = [(paths[p], grid[p][cell[p]]) for p in at]
                    parsed[key] = self._parse_field(name, items)
                values[name] = parsed[key]
            yield values

    def _parse_field(self, name: str, overrides: Sequence[tuple[str, Any]]) -> object:
        """Field ``name`` with ``(path, value)`` overrides into it applied.

        A dotted path edits the JSON of the field's value as it stands:
        a nested spec's ``to_dict()``, the spec a shorthand string
        names, or ``{}`` where there is none.  Any other value of a
        nested field fails with its class's ``from_dict`` message; a
        scalar field's rule refuses the mapping.  A nested field is then
        parsed as :meth:`from_dict` parses it; any other value is left
        to the constructor's field rule.
        """
        rule = self.nested_rules.get(name)
        value = vars(self)[name]
        for path, item in overrides:
            if "." not in path:
                value = item
                continue
            if value is None or (rule is None and not isinstance(value, dict)):
                value = {}  # a scalar field's rule will refuse the mapping
            elif not isinstance(value, dict):
                if not isinstance(value, rule.kind):
                    value = rule.kind.from_dict(value)  # a shorthand, or its error
                value = value.to_dict()
            value = _with_path(value, path, item)
        if rule is not None and (value is not None or not rule.nullable):
            value = rule.kind.from_dict(value)
        return value

    def rebuilt(self, values: Mapping[str, object]):
        """A copy with the parsed fields ``values`` replaced: one constructor call."""
        return type(self)(**{**vars(self), **values})


class NamedSpec:
    """Base of the ``{<name key>: <name>, "params": {...}}`` specs.

    A subclass is a frozen dataclass with two fields, its name (stored
    under ``name_key``) and ``params``, and sets three more class
    attributes: ``label``, the noun its messages use; ``shorthand``,
    whether a bare name string loads as the spec; and ``builder``,
    ``builder(name, params) -> object``.  A spec with a builder is
    validated eagerly - built and discarded at construction - so a
    malformed one fails before any simulation runs; ``None`` marks specs
    whose building needs resolution context (``n``, a prediction).
    """

    name_key: ClassVar[str]
    label: ClassVar[str]
    shorthand: ClassVar[bool] = True
    builder: ClassVar[Callable | None] = None

    def __post_init__(self) -> None:
        name = getattr(self, self.name_key)
        if not isinstance(name, str):
            raise ScenarioError(
                f"{self.label} spec {self.name_key!r} must be a string, got "
                f"{type(name).__name__} {name!r}"
            )
        if not name:
            raise ScenarioError(
                f"{self.label} spec needs a non-empty {self.name_key}"
            )
        params = _json_mapping(self.params, f"{self.label} params")
        object.__setattr__(self, "params", params)
        if self.builder is not None:
            try:
                self.build()
            except (TypeError, ValueError) as exc:
                raise ScenarioError(f"{self.label} spec: {exc}") from exc

    def build(self):
        """The object this spec names, freshly built from its params."""
        return self.builder(
            getattr(self, self.name_key), copy.deepcopy(self.params)
        )

    def to_dict(self) -> dict:
        return {
            self.name_key: getattr(self, self.name_key),
            "params": copy.deepcopy(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping | str):
        if cls.shorthand and isinstance(data, str):  # a bare name, no params
            return cls(data)
        what = f"{cls.label} spec"
        data = _require_mapping(data, what)
        _check_known_keys(data, {cls.name_key, "params"}, what)
        # A name with a dataclass default (prediction "truth") has it as a
        # class attribute; a missing name without one fails as empty.
        name = data.get(cls.name_key, getattr(cls, cls.name_key, ""))
        return cls(name, data.get("params", {}))


@dataclass(frozen=True)
class ProtocolSpec(NamedSpec):
    """A protocol reference: registry id plus constructor parameters.

    ``params`` values must be JSON-native; wrapper protocols (restart,
    fallback, uniform-as-player) nest further protocol specs as plain
    ``{"id": ..., "params": {...}}`` mappings inside ``params``.  Built
    at resolution, with the scenario's context
    (:func:`~repro.scenarios.registry.build_protocol`).
    """

    id: str
    params: dict = field(default_factory=dict)

    name_key = "id"
    label = "protocol"


@dataclass(frozen=True)
class ChannelSpec:
    """The channel: with or without collision detection, plus faults.

    ``model`` is an optional fault-injecting channel-model spec, a
    JSON-native mapping ``{"name": <model>, "params": {...}}`` naming one
    of the models in :data:`repro.channel.models.CHANNEL_MODELS`
    (jamming adversaries, noisy feedback, player crashes).  ``None`` is
    the paper's faithful channel.  The mapping is validated eagerly at
    spec-construction time so malformed specs (negative budget, flip
    probability outside [0, 1], unknown model name) fail before any
    simulation runs.
    """

    collision_detection: bool
    model: dict | None = None

    def __post_init__(self) -> None:
        _FLAG.check(self.collision_detection, "collision_detection", "channel spec")
        if self.model is not None:
            model = _json_mapping(self.model, "channel model spec")
            object.__setattr__(self, "model", model)
            # Eager validation: build (and discard) the model so spec
            # errors surface at construction.
            self.build_model()

    @property
    def kind(self) -> str:
        return "CD" if self.collision_detection else "no-CD"

    def build_model(self):
        """The resolved :class:`~repro.channel.models.ChannelModel` or None.

        A model the registry refuses raises :class:`ScenarioError`.
        """
        if self.model is None:
            return None
        from ..channel.models import channel_model_from_dict

        try:
            return channel_model_from_dict(self.model)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"channel model spec: {exc}") from exc

    def build(self):
        """The :class:`~repro.channel.channel.Channel` this spec names."""
        from ..channel.channel import Channel

        return Channel(
            collision_detection=self.collision_detection, model=self.build_model()
        )

    def to_dict(self) -> dict:
        data: dict = {"collision_detection": self.collision_detection}
        if self.model is not None:
            data["model"] = copy.deepcopy(self.model)
        return data

    @classmethod
    def from_dict(cls, data: Mapping | str) -> "ChannelSpec":
        if isinstance(data, str):  # shorthand: "cd" / "nocd"
            label = data.lower().replace("-", "").replace("_", "")
            if label == "cd":
                return cls(collision_detection=True)
            if label in ("nocd", "noncd"):
                return cls(collision_detection=False)
            raise ScenarioError(f"unknown channel shorthand {data!r}")
        data = _require_mapping(data, "channel spec")
        _check_known_keys(data, {"collision_detection", "model"}, "channel spec")
        if "collision_detection" not in data:
            raise ScenarioError("channel spec needs 'collision_detection'")
        return cls(data["collision_detection"], data.get("model"))


@dataclass(frozen=True)
class WorkloadSpec(NamedSpec):
    """How per-trial participant counts are produced.

    Kinds (resolved by :mod:`repro.scenarios.workloads`):

    * ``"fixed"`` - params ``{"k": int}``: every trial has exactly ``k``
      participants (the Section 3 setting);
    * ``"distribution"`` - params ``{"family": <name>, ...}``: an i.i.d.
      draw per trial from a :class:`SizeDistribution` constructor family
      (the Section 2.2 setting);
    * ``"bursty"`` - Markov-modulated burst arrivals
      (:class:`~repro.channel.arrivals.MarkovBurstArrivals` params);
    * ``"trace"`` - params ``{"ks": [int, ...]}``: replay an explicit
      count sequence;
    * ``"poisson"`` / ``"zipf-hotspot"`` - the open-system arrival
      families (:mod:`repro.opensys.arrivals` params) doubling as
      batch-size sources, clamped into the valid contender range.
    """

    kind: str
    params: dict = field(default_factory=dict)

    name_key = "kind"
    label = "workload"
    shorthand = False


@dataclass(frozen=True)
class PredictionSpec(NamedSpec):
    """Where a prediction protocol's predicted distribution ``Y`` comes from.

    ``source="truth"`` hands the protocol the workload's own distribution
    (the clairvoyant ``Y = X`` of Corollaries 2.15/2.18; requires a
    ``distribution`` workload).  ``source="distribution"`` supplies an
    explicit distribution family - divergence between it and the workload
    is the prediction-quality dial of Theorems 2.12/2.16.
    """

    source: str = "truth"
    params: dict = field(default_factory=dict)

    name_key = "source"
    label = "prediction"


#: Advice functions by name: ``(bits, n) -> AdviceFunction``.  The
#: classes come from the lazy :mod:`repro.core` package, so only a spec
#: that builds advice imports their modules.
_ADVICE_FUNCTIONS = Registry(
    "advice function",
    {
        "null": lambda bits, n: core.NullAdvice(),
        "min-id-prefix": lambda bits, n: core.MinIdPrefixAdvice(bits),
        "range-block": lambda bits, n: core.RangeBlockAdvice(bits),
        "full-id": lambda bits, n: core.FullIdAdvice(n),
    },
)

#: Advice corruption models by name: the :mod:`repro.core` class of each
#: ``(base, probability, rng)`` wrapper.
_ADVICE_CORRUPTIONS = Registry(
    "advice corruption model",
    {"bit-flip": "BitFlipAdvice", "adversarial": "AdversarialAdvice"},
)


@dataclass(frozen=True)
class AdviceSpec:
    """Advice function (and optional corruption) for player protocols.

    ``function`` is one of ``"null"``, ``"min-id-prefix"``,
    ``"range-block"``, ``"full-id"``; ``bits`` is the advice budget ``b``
    (ignored by ``full-id``, which always uses the full id width).
    ``corruption`` models faulty advice:
    ``{"model": "bit-flip", "probability": p}`` or
    ``{"model": "adversarial", "probability": p}``.  Both are checked at
    construction, so a bad name or parameter fails before any run.
    """

    function: str
    bits: int = 0
    corruption: dict | None = None

    def __post_init__(self) -> None:
        _STRING.check(self.function, "function", "advice spec")
        bits = _INT64.check(self.bits, "bits", "advice spec")
        if bits < 0:
            raise ScenarioError(f"advice bits must be >= 0, got {bits}")
        object.__setattr__(self, "bits", bits)
        _ADVICE_FUNCTIONS[self.function]
        if self.corruption is not None:
            corruption = _json_mapping(self.corruption, "advice corruption")
            object.__setattr__(self, "corruption", corruption)
            self._corrupted(core.NullAdvice(), None)

    def build(self, n: int, rng: np.random.Generator) -> core.AdviceFunction:
        """The advice function for ``n`` ids, any corruption bound to ``rng``.

        Building consumes nothing from ``rng``; the corruption wrapper
        draws from it as it advises.
        """
        base = _ADVICE_FUNCTIONS[self.function](self.bits, n)
        return base if self.corruption is None else self._corrupted(base, rng)

    def _corrupted(
        self, base: core.AdviceFunction, rng: np.random.Generator | None
    ) -> core.AdviceFunction:
        reader = Params(self.corruption, "advice corruption")
        wrapper = getattr(core, _ADVICE_CORRUPTIONS[reader.take("model", str)])
        probability = reader.take("probability", float)
        reader.done()
        try:
            return wrapper(base, probability, rng)
        except ValueError as exc:  # a probability outside [0, 1]
            raise ScenarioError(f"advice corruption: {exc}") from None

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "bits": self.bits,
            "corruption": copy.deepcopy(self.corruption),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "AdviceSpec":
        data = _require_mapping(data, "advice spec")
        _check_known_keys(data, {"function", "bits", "corruption"}, "advice spec")
        return cls(
            data.get("function", "null"),
            data.get("bits", 0),
            data.get("corruption"),
        )


@dataclass(frozen=True)
class ScenarioSpec(SpecCodec):
    """One complete simulation scenario, ready to serialize or run.

    Attributes
    ----------
    protocol:
        Registry reference of the protocol under test.
    workload:
        Participant-count process.
    channel:
        Collision-detection capability.
    n:
        Maximum network size (board size for distributions, id space for
        player protocols).
    trials:
        Monte Carlo trials.
    max_rounds:
        Round budget per trial.
    seed:
        Root RNG seed - a spec plus its seed fully determines the result.
    batch:
        Engine selection forwarded to the estimators: ``None`` auto-routes
        to the fastest capable engine, ``False`` forces the scalar
        reference loop, ``True`` insists on a batch engine.
    prediction:
        Predicted-distribution source for prediction protocols
        (sorted probing / code search); ``None`` otherwise.
    advice:
        Advice function for player protocols; ``None`` otherwise.
    adversary:
        Participant-set strategy for player protocols (a
        :mod:`repro.channel.network` adversary name; default random).
    name:
        Free-form label carried into results and sweep tables.
    """

    protocol: ProtocolSpec
    workload: WorkloadSpec
    channel: ChannelSpec
    n: int
    trials: int
    max_rounds: int
    seed: int = 2021
    batch: bool | None = None
    prediction: PredictionSpec | None = None
    advice: AdviceSpec | None = None
    adversary: str = "random"
    name: str = ""

    json_label = "scenario"
    field_rules = {
        "protocol": FieldRule(ProtocolSpec),
        "workload": FieldRule(WorkloadSpec),
        "channel": FieldRule(ChannelSpec),
        "n": _N,
        "trials": _COUNT,
        "max_rounds": _COUNT,
        "seed": _SEED,
        "batch": _BATCH,
        "prediction": FieldRule(PredictionSpec, nullable=True),
        "advice": FieldRule(AdviceSpec, nullable=True),
        "adversary": _STRING,
        "name": _STRING,
    }

    def label(self) -> str:
        """Short human-readable identity for tables and progress lines."""
        return self.name or f"{self.protocol.id}/{self.workload.kind}"


@dataclass(frozen=True)
class SpecFamily:
    """A spec family: its :func:`~repro.scenarios.store.spec_key` tag,
    spec, runner and result, and ``load``, which reads back a result a
    store entry or journal line saved."""

    kind: str
    spec: type
    run: Callable
    result: type
    load: Callable


#: Keys only an open-system spec takes.
_OPEN_ONLY = frozenset(
    {"rounds", "warmup", "capacity", "timeout", "retry", "admission"}
)


def spec_family(spec) -> SpecFamily:
    """The family of a spec object or of a spec's ``to_dict()`` mapping.

    An ``arrivals`` slot (or key) marks an open-system spec.  So does a
    mapping without a ``workload`` key that holds a key only an open
    spec takes (``rounds``, ``warmup``, ``capacity``, ``timeout``,
    ``retry``, ``admission``): an open spec that lost its ``arrivals``
    then fails naming it.  Anything else is closed.  The family is read
    from the keys alone; the runners are imported on first use, and
    :mod:`repro.scenarios.open`, which imports the opensys stack, only
    for open specs.
    """
    if isinstance(spec, Mapping):
        is_open = "arrivals" in spec or (
            "workload" not in spec and not _OPEN_ONLY.isdisjoint(spec)
        )
    else:
        is_open = hasattr(spec, "arrivals")
    if is_open:
        from . import open as open_module

        return SpecFamily(
            "open",
            open_module.OpenScenarioSpec,
            open_module.run_open_scenario,
            open_module.OpenScenarioResult,
            open_module.OpenScenarioResult.from_saved,
        )
    from . import runner

    result = runner.ScenarioResult
    return SpecFamily(
        "scenario", ScenarioSpec, runner.run_scenario, result, result.from_dict
    )
