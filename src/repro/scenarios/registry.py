"""The protocol registry: string id -> constructor, for every protocol.

Scenario specs reference protocols by id; this registry maps each id to a
builder that constructs the protocol from JSON-native parameters plus a
:class:`BuildContext` (the scenario's ``n`` and resolved
:class:`~repro.core.predictions.Prediction`).  Every protocol class in
:mod:`repro.protocols` is registered - baselines, the paper's prediction
and advice algorithms, and the wrapper/combinator protocols, which nest
further protocol specs inside their parameters (e.g. a fallback player
protocol naming its primary and fallback halves declaratively).

Builders read their parameters through :class:`~repro.core.named.Params`,
naming each one's type: a value of the wrong type (``"false"`` for a
flag, ``2.7`` for a count) and every key no builder took raise
:class:`~repro.core.named.ScenarioError` instead of being coerced or
silently dropped, so spec typos fail loudly at resolution time.
Builders reach their classes through the lazy :mod:`repro.protocols`
package, so a run imports only the protocol modules its specs name.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from .. import protocols
from ..core.named import Params, Registry
from ..core.predictions import Prediction
from ..core.protocol import PlayerProtocol, UniformProtocol
from .spec import ProtocolSpec, ScenarioError

__all__ = [
    "UNIFORM",
    "PLAYER",
    "RegisteredProtocol",
    "BuildContext",
    "register_protocol",
    "get_protocol",
    "protocol_ids",
    "build_protocol",
]

UNIFORM = "uniform"
PLAYER = "player"

Builder = Callable[["BuildContext", Params], UniformProtocol | PlayerProtocol]


@dataclass(frozen=True)
class RegisteredProtocol:
    """One registry entry: id, engine family and builder."""

    id: str
    kind: str  # UNIFORM or PLAYER
    description: str
    builder: Builder


_REGISTRY = Registry("protocol")


def register_protocol(
    protocol_id: str, kind: str, description: str
) -> Callable[[Builder], Builder]:
    """Decorator registering a builder under ``protocol_id``."""
    if kind not in (UNIFORM, PLAYER):
        raise ValueError(f"kind must be {UNIFORM!r} or {PLAYER!r}, got {kind!r}")

    def decorate(builder: Builder) -> Builder:
        _REGISTRY.register(
            protocol_id,
            RegisteredProtocol(
                id=protocol_id, kind=kind, description=description, builder=builder
            ),
        )
        return builder

    return decorate


def get_protocol(protocol_id: str) -> RegisteredProtocol:
    """The registry entry for ``protocol_id`` (with options on miss)."""
    return _REGISTRY[protocol_id]


def protocol_ids() -> list[str]:
    """All registered protocol ids, sorted."""
    return sorted(_REGISTRY)


@dataclass
class BuildContext:
    """What builders may depend on besides their own parameters."""

    n: int
    prediction: Prediction | None = None
    _stack: list[str] = field(default_factory=list)

    def require_prediction(self, protocol_id: str) -> Prediction:
        if self.prediction is None:
            raise ScenarioError(
                f"protocol {protocol_id!r} needs a prediction spec "
                "(set 'prediction' on the scenario)"
            )
        return self.prediction

    def build(self, spec_like: ProtocolSpec | Mapping | str):
        """Resolve a nested protocol spec (wrapper parameters)."""
        spec = (
            spec_like
            if isinstance(spec_like, ProtocolSpec)
            else ProtocolSpec.from_dict(spec_like)
        )
        if spec.id in self._stack:
            raise ScenarioError(
                f"recursive protocol nesting: {' -> '.join(self._stack + [spec.id])}"
            )
        entry = get_protocol(spec.id)
        self._stack.append(spec.id)
        try:
            params = Params(spec.params, f"protocol {spec.id!r}")
            protocol = entry.builder(self, params)
            params.done()
            return protocol
        except ScenarioError:
            raise
        except (TypeError, ValueError) as error:
            # Constructor validation (bad values, not just bad names) also
            # surfaces as a spec error with the protocol's identity attached.
            raise ScenarioError(
                f"invalid parameters for protocol {spec.id!r}: {error}"
            ) from None
        finally:
            self._stack.pop()

    def build_uniform(self, spec_like, *, wrapper: str) -> UniformProtocol:
        protocol = self.build(spec_like)
        if not isinstance(protocol, UniformProtocol):
            raise ScenarioError(
                f"{wrapper} needs a uniform inner protocol, got "
                f"{type(protocol).__name__}"
            )
        return protocol

    def build_player(self, spec_like, *, wrapper: str) -> PlayerProtocol:
        protocol = self.build(spec_like)
        if not isinstance(protocol, PlayerProtocol):
            raise ScenarioError(
                f"{wrapper} needs a player inner protocol, got "
                f"{type(protocol).__name__}"
            )
        return protocol


def build_protocol(
    spec: ProtocolSpec, context: BuildContext
) -> UniformProtocol | PlayerProtocol:
    """Construct the protocol a spec references, via the registry."""
    return context.build(spec)


# ----------------------------------------------------------------------
# Builder helpers
# ----------------------------------------------------------------------
def _block_index(context: BuildContext, params: Params, bits: int) -> int:
    """Advised-block selection: explicit ``block_index`` or perfect-advice ``k``."""
    block_index = params.take("block_index", int, None)
    k = params.take("k", int, None)
    if (block_index is None) == (k is None):
        raise ScenarioError(
            f"{params.what} needs exactly one of 'block_index' "
            "(explicit) or 'k' (the count a perfect advice function sees)"
        )
    if block_index is not None:
        return block_index
    return protocols.block_index_for(context.n, bits, k)


# ----------------------------------------------------------------------
# Uniform protocols
# ----------------------------------------------------------------------
@register_protocol("decay", UNIFORM, "cycling decay baseline, O(log n) no-CD [2]")
def _build_decay(context: BuildContext, params: Params) -> UniformProtocol:
    return protocols.DecayProtocol(
        params.take("n", int, context.n),
        cycle=params.take("cycle", bool, True),
        handle_k1=params.take("handle_k1", bool, False),
    )


@register_protocol(
    "jiang-zheng", UNIFORM, "robust no-CD sawtooth baseline (Jiang-Zheng 2021)"
)
def _build_jiang_zheng(context: BuildContext, params: Params) -> UniformProtocol:
    return protocols.JiangZhengProtocol(
        params.take("n", int, context.n),
        cycle=params.take("cycle", bool, True),
    )


@register_protocol("willard", UNIFORM, "Willard CD binary search, O(log log n) [22]")
def _build_willard(context: BuildContext, params: Params) -> UniformProtocol:
    return protocols.WillardProtocol(
        params.take("n", int, context.n),
        ranges=params.take("ranges", list, None),
        repetitions=params.take("repetitions", int, 3),
        restart=params.take("restart", bool, True),
        handle_k1=params.take("handle_k1", bool, False),
    )


@register_protocol(
    "fixed-probability", UNIFORM, "transmit with 1/k_hat, the perfect-estimate O(1) anchor"
)
def _build_fixed(context: BuildContext, params: Params) -> UniformProtocol:
    return protocols.FixedProbabilityProtocol(params.take("k_hat", float))


@register_protocol(
    "sorted-probing", UNIFORM, "no-CD prediction algorithm of Thm 2.12 (Section 2.5)"
)
def _build_sorted_probing(context: BuildContext, params: Params) -> UniformProtocol:
    return protocols.SortedProbingProtocol(
        context.require_prediction("sorted-probing"),
        one_shot=params.take("one_shot", bool, True),
        handle_k1=params.take("handle_k1", bool, False),
        support_only=params.take("support_only", bool, False),
    )


@register_protocol(
    "code-search", UNIFORM, "CD prediction algorithm of Thm 2.16 (Section 2.6)"
)
def _build_code_search(context: BuildContext, params: Params) -> UniformProtocol:
    return protocols.CodeSearchProtocol(
        context.require_prediction("code-search"),
        repetitions=params.take("repetitions", int, 3),
        one_shot=params.take("one_shot", bool, True),
        handle_k1=params.take("handle_k1", bool, False),
        support_only=params.take("support_only", bool, False),
    )


@register_protocol(
    "phased-search", UNIFORM, "generic CD phase search over explicit range phases"
)
def _build_phased_search(context: BuildContext, params: Params) -> UniformProtocol:
    phases = params.take("phases", list)
    return protocols.PhasedSearchProtocol(
        [
            Params.check(phase, list, f"{params.what} phase")
            for phase in phases
        ],
        repetitions=params.take("repetitions", int, 3),
        restart=params.take("restart", bool, True),
        handle_k1=params.take("handle_k1", bool, False),
    )


@register_protocol(
    "truncated-decay", UNIFORM, "decay on the advised range block (Thm 3.6)"
)
def _build_truncated_decay(context: BuildContext, params: Params) -> UniformProtocol:
    bits = params.take("advice_bits", int)
    return protocols.TruncatedDecayProtocol(
        context.n,
        bits,
        _block_index(context, params, bits),
        cycle=params.take("cycle", bool, True),
        handle_k1=params.take("handle_k1", bool, False),
    )


@register_protocol(
    "truncated-willard", UNIFORM, "Willard search on the advised block (Thm 3.7)"
)
def _build_truncated_willard(context: BuildContext, params: Params) -> UniformProtocol:
    bits = params.take("advice_bits", int)
    return protocols.truncated_willard_protocol(
        context.n,
        bits,
        _block_index(context, params, bits),
        repetitions=params.take("repetitions", int, 3),
        restart=params.take("restart", bool, True),
        handle_k1=params.take("handle_k1", bool, False),
    )


@register_protocol(
    "restart", UNIFORM, "re-run a one-shot uniform protocol until stopped"
)
def _build_restart(context: BuildContext, params: Params) -> UniformProtocol:
    return protocols.RestartProtocol(
        context.build_uniform(params.take("inner", object), wrapper="restart")
    )


# ----------------------------------------------------------------------
# Player protocols
# ----------------------------------------------------------------------
@register_protocol(
    "backoff", PLAYER, "binary exponential backoff, the practical CD comparator"
)
def _build_backoff(context: BuildContext, params: Params) -> PlayerProtocol:
    return protocols.BinaryExponentialBackoff(
        initial_window=params.take("initial_window", float, 2.0),
        max_window=params.take("max_window", float, float(2**20)),
    )


@register_protocol(
    "deterministic-scan", PLAYER, "no-CD candidate scan on advised subtree (Sec 3.2)"
)
def _build_scan(context: BuildContext, params: Params) -> PlayerProtocol:
    return protocols.DeterministicScanProtocol(params.take("advice_bits", int))


@register_protocol(
    "tree-descent", PLAYER, "CD tree descent with collision votes (Sec 3.2)"
)
def _build_descent(context: BuildContext, params: Params) -> PlayerProtocol:
    return protocols.DeterministicTreeDescentProtocol(params.take("advice_bits", int))


@register_protocol(
    "uniform-as-player", PLAYER, "per-player view of a uniform protocol"
)
def _build_uniform_as_player(context: BuildContext, params: Params) -> PlayerProtocol:
    return protocols.UniformAsPlayerProtocol(
        context.build_uniform(
            params.take("inner", object), wrapper="uniform-as-player"
        )
    )


@register_protocol(
    "fallback", PLAYER, "primary player protocol with a budgeted fallback switch"
)
def _build_fallback(context: BuildContext, params: Params) -> PlayerProtocol:
    primary = context.build_player(params.take("primary", object), wrapper="fallback")
    fallback = context.build_player(params.take("fallback", object), wrapper="fallback")
    budget = params.take("budget_rounds", object, "worst-case")
    if budget == "worst-case":
        worst_case = getattr(primary, "worst_case_rounds", None)
        if worst_case is None:
            raise ScenarioError(
                "budget_rounds='worst-case' needs a primary protocol with a "
                f"worst_case_rounds(n) bound; {primary.name!r} has none"
            )
        budget = int(worst_case(context.n))
    else:
        budget = Params.check(budget, int, f"{params.what} parameter 'budget_rounds'")
    return protocols.FallbackPlayerProtocol(primary, fallback, budget)
