"""Resolving workload and prediction specs into runnable size sources.

The bridge between the declarative layer (:mod:`repro.scenarios.spec`)
and the concrete workload objects the estimators consume:

* ``"fixed"`` workloads resolve to a plain ``int`` (the estimators'
  fast path for a constant participant count);
* ``"distribution"`` workloads resolve through
  :data:`DISTRIBUTION_FAMILIES` - a name -> constructor registry over
  the :class:`~repro.infotheory.distributions.SizeDistribution`
  families (every public constructor is registered);
* ``"bursty"`` workloads build the Markov-modulated arrival model of
  :mod:`repro.channel.arrivals` - the correlated-across-trials process
  an i.i.d. distribution cannot express - from four required rates,
  ``start_in_burst`` (a bool, default false) and an optional ``name``;
* ``"trace"`` workloads replay explicit count sequences;
* ``"poisson"`` / ``"zipf-hotspot"`` workloads reuse the open-system
  arrival families (:mod:`repro.opensys.arrivals`) as batch-size
  sources, clamped into the valid contender range - the closed-world
  view of the same traffic the open driver streams.

Prediction specs resolve to :class:`~repro.core.predictions.Prediction`
objects here too, since "the truth" - the most common prediction source -
is the resolved workload distribution itself.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable, Mapping

from ..core.named import Params, Registry
from ..core.predictions import Prediction
from ..infotheory.distributions import SizeDistribution
from .spec import PredictionSpec, ScenarioError, WorkloadSpec

__all__ = [
    "DISTRIBUTION_FAMILIES",
    "register_distribution_family",
    "resolve_distribution",
    "resolve_workload",
    "resolve_prediction",
    "workload_label",
]

def _perturbed(
    n: int,
    *,
    base: Mapping,
    mix: float | None = None,
    shift: int | None = None,
    floor: float | None = None,
) -> SizeDistribution:
    """Prediction-error pipeline over a nested base family.

    Declarative access to :mod:`repro.infotheory.perturb`: resolve the
    ``base`` family spec, then optionally epsilon-contaminate
    (``mix``), systematically bias by ``shift`` ranges, and support-floor
    (``floor``) so the divergence against the base stays finite - the
    transforms the divergence experiments dial predictions with, applied
    in that order.
    """
    from ..infotheory import perturb

    distribution = resolve_distribution(n, base)
    if mix is not None:
        distribution = perturb.mix_with_uniform(distribution, float(mix))
    if shift is not None:
        distribution = perturb.shift_ranges(distribution, int(shift))
    if floor is not None:
        distribution = perturb.floor_support(distribution, float(floor))
    return distribution


#: Distribution family name -> constructor ``(n, **params) -> SizeDistribution``.
DISTRIBUTION_FAMILIES = Registry(
    "distribution family",
    {
        "point": SizeDistribution.point,
        "uniform": SizeDistribution.uniform,
        "range_uniform": SizeDistribution.range_uniform,
        "range_uniform_subset": SizeDistribution.range_uniform_subset,
        "interpolated_entropy": SizeDistribution.interpolated_entropy,
        "geometric": SizeDistribution.geometric,
        "zipf": SizeDistribution.zipf,
        "bimodal": SizeDistribution.bimodal,
        "pliam": SizeDistribution.pliam,
        "perturbed": _perturbed,
    },
)


def register_distribution_family(
    name: str, constructor: Callable[..., SizeDistribution]
) -> None:
    """Register a custom distribution family for workload/prediction specs."""
    DISTRIBUTION_FAMILIES.register(name, constructor)


# A sweep cycles through a handful of distinct distributions; keep the
# cache small (FIFO-evicted) - full-board entries hold 65k-atom pmfs plus
# lazily built sampler/condensation state, so a large cache would pin
# real memory.
_DISTRIBUTION_CACHE: dict[tuple[int, str, str], SizeDistribution] = {}
_DISTRIBUTION_CACHE_MAX = 32


def resolve_distribution(n: int, params: Mapping) -> SizeDistribution:
    """Build the distribution a ``{"family": ..., **kwargs}`` mapping names.

    Results are memoized on ``(n, family, params)``: a sweep re-resolves
    the same handful of workload and prediction distributions for every
    grid point, and full-board construction (pmf validation plus
    condensation) is the dominant resolution cost.  Distributions are
    immutable apart from internal caches, so sharing one instance across
    points is safe - the solo runner already reuses one instance across
    all trials of a scenario.  The constructor always receives the
    caller's *original* params; only parameter sets that survive a JSON
    round-trip unchanged are cached (custom families registered with
    e.g. tuple values or int-keyed dicts simply bypass the memo rather
    than being handed transformed arguments or colliding on a lossy
    key).
    """
    params = dict(params)
    family = params.pop("family", None)
    if not family:
        raise ScenarioError("distribution params need a 'family' name")
    constructor = DISTRIBUTION_FAMILIES[family]
    try:
        encoded = json.dumps(params, sort_keys=True)
        cacheable = json.loads(encoded) == params
    except TypeError:
        cacheable = False
    if not cacheable:
        return _build_distribution(n, family, constructor, params)
    key = (n, family, encoded)
    hit = _DISTRIBUTION_CACHE.get(key)
    if hit is None:
        hit = _build_distribution(n, family, constructor, params)
        if len(_DISTRIBUTION_CACHE) >= _DISTRIBUTION_CACHE_MAX:
            _DISTRIBUTION_CACHE.pop(next(iter(_DISTRIBUTION_CACHE)))
        _DISTRIBUTION_CACHE[key] = hit
    return hit


def _build_distribution(
    n: int, family: str, constructor: Callable[..., SizeDistribution], params: dict
) -> SizeDistribution:
    try:
        return constructor(n, **params)
    except (TypeError, ValueError) as error:
        # Bad names *and* bad values both surface as spec errors, so the
        # CLI reports them cleanly instead of leaking a traceback.
        raise ScenarioError(
            f"bad parameters for distribution family {family!r}: {error}"
        ) from None


def _taken_whole(params: Params) -> dict:
    """All of ``params`` at once, for a builder that reads them itself."""
    whole = dict(params)
    params.clear()
    return whole


def _fixed_workload(params: Params, n: int) -> int:
    k = params.take("k", int)
    if k < 1:
        raise ScenarioError(f"fixed workload needs an integer k >= 1, got {k!r}")
    if k > n:
        raise ScenarioError(f"fixed workload k={k} exceeds n={n}")
    return k


def _bursty_workload(params: Params, n: int) -> MarkovBurstArrivals:
    from ..channel.arrivals import MarkovBurstArrivals

    rates = {
        key: params.take(key, float)
        for key in ("calm_rate", "burst_rate", "burst_arrival", "burst_departure")
    }
    start_in_burst = params.take("start_in_burst", bool, False)
    name = params.take("name", str, None)
    try:
        return MarkovBurstArrivals(
            n, **rates, start_in_burst=start_in_burst, name=name
        )
    except ValueError as error:
        raise ScenarioError(f"bad bursty workload parameters: {error}") from None


def _trace_workload(params: Params, n: int) -> TraceArrivals:
    from ..channel.arrivals import TraceArrivals

    ks = params.take("ks", list, None)
    name = params.take("name", str, "trace")
    if not ks:
        raise ScenarioError("trace workload needs a non-empty 'ks' list")
    counts = [Params.check(k, int, "trace workload count") for k in ks]
    try:
        return TraceArrivals(counts, name=name)
    except (TypeError, ValueError) as error:
        raise ScenarioError(f"bad trace workload parameters: {error}") from None


def _arrival_workload(family: str, params: Params, n: int):
    """An open-system arrival family as a closed batch-size source.

    Each trial's contender count is one round's arrival draw, clamped
    into ``[MIN_COUNT, n]`` like the bursty/trace kinds.
    """
    from ..opensys.arrivals import (
        ClampedArrivalSizeSource,
        arrival_process_from_dict,
    )

    try:
        whole = {"family": family, **_taken_whole(params)}
        return ClampedArrivalSizeSource(arrival_process_from_dict(whole), n)
    except (TypeError, ValueError) as error:
        raise ScenarioError(f"bad {family} workload parameters: {error}") from None


#: Workload kind -> builder ``(params, n) -> size source``.
_WORKLOADS = Registry(
    "workload kind",
    {
        "fixed": _fixed_workload,
        "distribution": lambda params, n: resolve_distribution(
            n, _taken_whole(params)
        ),
        "bursty": _bursty_workload,
        "trace": _trace_workload,
        "poisson": functools.partial(_arrival_workload, "poisson"),
        "zipf-hotspot": functools.partial(_arrival_workload, "zipf-hotspot"),
    },
)


def resolve_workload(spec: WorkloadSpec, n: int):
    """The runnable size source a workload spec describes.

    Returns an ``int`` (fixed workloads) or an object with
    ``sample`` / ``sample_many`` - exactly the estimators'
    ``SizeSource`` protocol.  Params are read strictly: a mistyped value
    or a key the kind does not take raises :class:`ScenarioError`.
    """
    builder = _WORKLOADS[spec.kind]
    params = Params(spec.params, f"{spec.kind} workload")
    source = builder(params, n)
    params.done()
    return source


def workload_label(source) -> str:
    """Human-readable workload identity for result metadata."""
    if isinstance(source, int):
        return f"fixed(k={source})"
    return getattr(source, "name", type(source).__name__)


def resolve_prediction(
    spec: PredictionSpec | None, workload_source, n: int
) -> Prediction | None:
    """The prediction a spec describes, given the resolved workload.

    ``source="truth"`` wraps the workload's own distribution (requires a
    distribution workload - there is no "true distribution" for fixed,
    bursty or trace workloads); ``source="distribution"`` builds an
    explicit predicted distribution, whose divergence from the workload
    is then the scenario's prediction-quality knob.
    """
    if spec is None:
        return None
    if spec.source == "truth":
        if not isinstance(workload_source, SizeDistribution):
            raise ScenarioError(
                "prediction source 'truth' needs a 'distribution' workload; "
                f"got workload {workload_label(workload_source)!r}"
            )
        return Prediction(workload_source)
    if spec.source == "distribution":
        return Prediction(resolve_distribution(n, spec.params))
    raise ScenarioError(
        f"unknown prediction source {spec.source!r}; known: truth, distribution"
    )

