"""Sweeps: expand a spec grid and run the points through an executor.

A :class:`Sweep` is a base spec - closed or open-system - plus a grid
of dotted-path overrides; :meth:`Sweep.points` expands the cartesian
product into concrete specs, and :func:`run_sweep` executes them through
a pluggable executor, each point through its family's runner and result
type (:func:`~repro.scenarios.spec.spec_family`):

* ``"serial"`` - run points in-process, in order (the reference);
* ``"process"`` - fan points out over a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Points are
  independent scenarios with their own seeds, so the two executors
  produce *identical* results - the pool only changes wall-clock time,
  scaling the lockstep batch engine across cores (the axis it cannot
  use by itself);
* ``"fused"`` - partition the points into compatibility groups
  (:func:`fusion_key`) and advance each group through one *stacked*
  engine run (:mod:`repro.channel.batch` /
  :mod:`repro.channel.batch_players`): the single-core counterpart of
  the process pool, amortizing the per-round engine work across a whole
  grid instead of across cores.  Every point draws from its own
  seed-derived generator in exactly the order a solo run would, so the
  fused statistics are bit-identical to the serial executor's; only the
  recorded engine label differs (``fused-schedule`` / ``fused-history``
  / ``fused-player`` says what actually executed).  Incompatible
  points - and singleton groups, where stacking buys nothing -
  transparently fall back to serial in-place runs, as do open points.

A fourth executor, ``"supervised"`` (:mod:`repro.scenarios.supervised`),
wraps a worker pool with per-point timeouts, bounded retry with backoff
and graceful degradation - on exhausted retries the sweep returns the
points that did complete plus a structured failure manifest instead of
raising.

Every executor has one signature (:data:`Executor`): it takes the
points still to run keyed by grid index, reports each completed point
through :func:`run_sweep`'s checkpoint, and returns the failure manifest
of the points it gave up on (always empty for the raising executors).

Specs and results cross the process boundary as JSON-native dicts, so
the pool never pickles protocol objects or RNG state - workers rebuild
everything from the spec, exactly as a fresh process loading the JSON
would.

:func:`run_sweep` also owns the durability layer
(:mod:`repro.scenarios.store`): ``resume=`` checkpoints every completed
point (whole fused groups atomically) to an append-only journal and
replays it on the next run, ``cache=`` consults a content-addressed
result store before executing anything, and ``fault_plan=``
(:mod:`repro.scenarios.faults`) injects scripted crashes so those
recovery paths stay tested.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..analysis.montecarlo import (
    ENGINE_FUSED_PLAYER,
    estimate_player_rounds_many,
    estimate_uniform_rounds_many,
)
from .faults import FaultPlan, SimulatedCrash
from .runner import (
    ResolvedScenario,
    ScenarioResult,
    package_result,
    resolve_scenario,
)
from .spec import (
    _FLAG,
    JsonCodec,
    ScenarioError,
    ScenarioSpec,
    _integer,
    _json_mapping,
    spec_family,
)
from .store import ResultStore, SweepJournal, spec_key, sweep_key

if TYPE_CHECKING:
    from .open import OpenScenarioSpec

__all__ = [
    "Sweep",
    "SweepResult",
    "SweepPointError",
    "run_sweep",
    "derive_point_seeds",
    "fusion_key",
    "fusion_groups",
    "EXECUTORS",
]


class SweepPointError(ScenarioError):
    """A sweep point failed, with the point named instead of a bare trace.

    Raised by the raising executors (serial / process / fused) in place
    of whatever the point's execution raised, so a failure 900 points
    into a grid says *which* point and *which* grid overrides produced
    it.  The original exception is chained as ``__cause__`` and kept on
    :attr:`cause`; the supervised executor records the same information
    in its failure manifest instead of raising at all.
    """

    def __init__(
        self,
        index: int,
        spec: ScenarioSpec | OpenScenarioSpec,
        cause: BaseException,
        overrides: Mapping | None = None,
    ) -> None:
        self.index = index
        self.spec = spec
        self.cause = cause
        self.overrides = dict(overrides) if overrides else {}
        parts = [f"sweep point {index} ({spec.label()}) failed: {cause}"]
        if self.overrides:
            parts.append(f"grid overrides: {json.dumps(self.overrides)}")
        parts.append(f"point spec: {json.dumps(spec.to_dict())}")
        super().__init__("; ".join(parts))


def derive_point_seeds(base_seed: int, count: int) -> list[int]:
    """Independent per-point seeds derived from one base seed.

    ``np.random.SeedSequence(base_seed).spawn(count)`` children, each
    collapsed to a 64-bit integer so it serializes into the point's spec
    (a re-run from the serialized point reproduces identically).  Unlike
    the old ``base_seed + index`` derivation, adjacent points get
    unrelated PCG64 streams instead of trivially correlated ones.
    """
    children = np.random.SeedSequence(base_seed).spawn(count)
    return [
        int(child.generate_state(1, dtype=np.uint64)[0]) for child in children
    ]


def _grid_values(path: object, values: object) -> list:
    """A grid path's values as a list, refusing anything but a non-empty list.

    A NumPy array is a list of its rows, so ``np.linspace(0, 0.5, 6)`` is
    a six-value grid.
    """
    if not isinstance(path, str):
        raise ScenarioError(
            f"grid paths must be strings, got {type(path).__name__} {path!r}"
        )
    if isinstance(values, np.ndarray) and values.ndim > 0:
        values = values.tolist()
    if not isinstance(values, Sequence) or isinstance(values, (str, bytes)):
        raise ScenarioError(
            f"grid values for {path!r} must be a list, got "
            f"{type(values).__name__}"
        )
    if len(values) == 0:
        raise ScenarioError(f"grid values for {path!r} must be non-empty")
    return list(values)


@dataclass(frozen=True)
class Sweep(JsonCodec):
    """A grid of scenario variations around a base spec.

    ``base`` is a :class:`ScenarioSpec` or an open-system
    :class:`~repro.scenarios.open.OpenScenarioSpec`; ``grid`` maps dotted
    override paths (see :meth:`ScenarioSpec.override`) to value lists;
    points are the cartesian product in row-major order (last key varies
    fastest).  With ``vary_seed`` (default), each point's seed is a
    :func:`derive_point_seeds` child of the base seed unless the grid
    itself sweeps ``seed`` - the derived seed is *part of the point's
    spec*, so a point re-run from its serialized form reproduces
    identically.
    """

    base: ScenarioSpec | OpenScenarioSpec
    grid: dict = field(default_factory=dict)
    vary_seed: bool = True

    json_label = "sweep"

    def __post_init__(self) -> None:
        if not isinstance(self.base, spec_family(self.base).spec):
            raise ScenarioError(
                f"sweep spec field 'base' must be ScenarioSpec or "
                f"OpenScenarioSpec, got {type(self.base).__name__} {self.base!r}"
            )
        if not isinstance(self.grid, Mapping):
            raise ScenarioError("sweep 'grid' must be a mapping")
        grid = {path: _grid_values(path, values) for path, values in self.grid.items()}
        object.__setattr__(self, "grid", _json_mapping(grid, "sweep grid"))
        _FLAG.check(self.vary_seed, "vary_seed", "sweep spec")

    def _grid_cells(self) -> list[dict]:
        """Each point's grid overrides, in row-major grid order."""
        paths = list(self.grid)
        return [
            dict(zip(paths, combo))
            for combo in itertools.product(*(self.grid[path] for path in paths))
        ]

    def points(self) -> list:
        """The expanded specs, in deterministic grid order.

        Point ``i`` is ``base.override`` of its grid cell plus its derived
        seed and name, or that call's error for the first failing cell.
        A field the grid reaches is parsed once per distinct combination
        of its paths' values, so points share nested spec objects with
        each other and with the base.
        """
        base, grid = self.base, list(self.grid.values())
        seeds = (
            derive_point_seeds(base.seed, math.prod(map(len, grid)))
            if self.vary_seed and "seed" not in self.grid
            else None
        )
        specs = []
        for index, values in enumerate(base.field_values(list(self.grid), grid)):
            # The derived seed and name are whole-field overrides applied
            # after the grid's paths, as override would apply them.
            if seeds is not None:
                values["seed"] = seeds[index]
            if "name" not in self.grid:
                values["name"] = (
                    f"{base.name}[{index}]" if base.name else f"point-{index}"
                )
            specs.append(base.rebuilt(values))
        return specs

    def point_overrides(self) -> list[dict]:
        """Each point's grid overrides (derived seed/name excluded), in order.

        Aligned with :meth:`points`; error messages and failure manifests
        use these to name the grid cell a failing point came from.
        """
        return self._grid_cells()

    def to_dict(self) -> dict:
        return {
            "base": self.base.to_dict(),
            "grid": {path: list(values) for path, values in self.grid.items()},
            "vary_seed": self.vary_seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Sweep":
        """Load a sweep; a base with an ``arrivals`` key is an open spec."""
        if not isinstance(data, Mapping):
            raise ScenarioError("sweep spec must be a mapping")
        unknown = sorted(set(data) - {"base", "grid", "vary_seed"})
        if unknown:
            raise ScenarioError(
                f"unknown sweep field(s): {', '.join(map(repr, unknown))}"
            )
        if "base" not in data:
            raise ScenarioError("sweep spec needs a 'base' scenario")
        base = data["base"]
        return cls(
            spec_family(base).spec.from_dict(base),
            data.get("grid", {}),
            data.get("vary_seed", True),
        )


@dataclass
class SweepResult(JsonCodec):
    """All point results of one sweep execution.

    ``resumed`` and ``cache_hits`` count points restored from a
    checkpoint journal or the content-addressed store instead of
    executed; like wall clock they are provenance, not identity, so they
    are excluded from equality.  ``failures`` is the structured failure
    manifest of a degraded run (supervised executor with exhausted
    retries): one mapping per missing point naming its index, label,
    grid overrides, spec and last error.  A degraded result is *not*
    equal to a complete one, so failures do participate in equality.
    """

    results: list
    executor: str
    elapsed_seconds: float = field(default=0.0, compare=False)
    resumed: int = field(default=0, compare=False)
    cache_hits: int = field(default=0, compare=False)
    failures: list = field(default_factory=list)

    json_label = "sweep result"

    def __len__(self) -> int:
        return len(self.results)

    def to_dict(self) -> dict:
        return {
            "executor": self.executor,
            "elapsed_seconds": self.elapsed_seconds,
            "resumed": self.resumed,
            "cache_hits": self.cache_hits,
            "failures": [dict(failure) for failure in self.failures],
            "results": [result.to_dict() for result in self.results],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepResult":
        return cls(
            results=[
                spec_family(row["spec"]).result.from_dict(row)
                for row in data["results"]
            ],
            executor=str(data.get("executor", "serial")),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            resumed=int(data.get("resumed", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            failures=[dict(row) for row in data.get("failures", [])],
        )

    def render(self) -> str:
        """Plain-text sweep table in the columns of the results' ``sweep_row``."""
        from ..analysis.tables import render_table

        lines = [
            f"sweep: {len(self.results)} point(s), executor={self.executor}, "
            f"wall {self.elapsed_seconds:.3f}s, resumed={self.resumed}, "
            f"cache_hits={self.cache_hits}, failures={len(self.failures)}",
        ]
        rows = [result.sweep_row() for result in self.results]
        if rows:
            cells = [list(row.values()) for row in rows]
            lines.append(render_table(list(rows[0]), cells, precision=3))
        if self.failures:
            lines.append("failed points (see the structured manifest in --json):")
            for failure in self.failures:
                lines.append(
                    f"  - point {failure.get('index')} "
                    f"({failure.get('name', '?')}): {failure.get('error', '?')} "
                    f"after {failure.get('attempts', '?')} attempt(s)"
                )
        return "\n".join(lines)


def _run_point_payload(spec_data: dict) -> dict:
    """Worker entry: spec dict in, result dict out (picklable both ways)."""
    family = spec_family(spec_data)
    return family.run(family.spec.from_dict(spec_data)).to_dict()


def _run_serial(
    pending: Mapping[int, object],
    *,
    max_workers: int | None,
    checkpoint: Callable,
    fault_plan: FaultPlan | None,
) -> list[dict]:
    del max_workers, fault_plan
    for index, point in pending.items():
        try:
            result = spec_family(point).run(point)
        except Exception as error:
            raise SweepPointError(index, point, error) from error
        # Outside the try: a checkpoint-injected SimulatedCrash must
        # unwind like a real crash, not get repackaged as a point error.
        checkpoint([index], [result])
    return []


def _pool_context():
    """Prefer fork where available: no re-import cost per worker."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _run_process_pool(
    pending: Mapping[int, object],
    *,
    max_workers: int | None,
    checkpoint: Callable,
    fault_plan: FaultPlan | None,
) -> list[dict]:
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    del fault_plan
    if max_workers is None:
        max_workers = min(len(pending), multiprocessing.cpu_count())
    with ProcessPoolExecutor(
        max_workers=max_workers, mp_context=_pool_context()
    ) as pool:
        futures = {
            pool.submit(_run_point_payload, point.to_dict()): index
            for index, point in pending.items()
        }
        running = set(futures)
        while running:
            done, running = wait(running, return_when=FIRST_COMPLETED)
            # Checkpoint completions in index order within each wave so
            # a crash-and-resume journal has a deterministic shape.
            for future in sorted(done, key=futures.__getitem__):
                index = futures[future]
                point = pending[index]
                try:
                    payload = future.result()
                except Exception as error:
                    for leftover in running:
                        leftover.cancel()
                    raise SweepPointError(index, point, error) from error
                result = spec_family(point).result.from_dict(payload)
                try:
                    checkpoint([index], [result])
                except BaseException:
                    # Driver crash (or journal error): don't block on
                    # points the journal will never see.
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
    return []


def fusion_key(resolved: ResolvedScenario) -> tuple | None:
    """The compatibility class of a resolved point, or ``None``.

    Points sharing a key can be stacked into one engine run with
    bit-identical per-point results; ``None`` marks points the fused
    executor must run serially.  Whether a point stacks at all, and on
    which engine, is its route's
    :attr:`~repro.analysis.montecarlo.Route.fused` label; the key adds
    the shape rules.  Stacked points share one rectangular trial block
    and one round loop, so the trial count, round budget and channel -
    including its fault model, whose state is per engine run - must
    agree; protocol params, workloads, predictions and seeds sweep
    freely.  Player points also run through *one* protocol object, so
    everything protocol construction consumes must match too: ``n``,
    the protocol spec and the prediction spec.
    """
    fused = resolved.route.fused
    if fused is None:
        return None
    spec = resolved.spec
    model = resolved.channel.active_model
    key = (
        fused,
        spec.trials,
        spec.max_rounds,
        spec.channel.collision_detection,
        json.dumps(model.to_dict(), sort_keys=True)
        if model is not None
        else None,
    )
    if fused != ENGINE_FUSED_PLAYER:
        return key
    return key + (
        spec.n,
        json.dumps(spec.protocol.to_dict(), sort_keys=True),
        json.dumps(
            spec.prediction.to_dict() if spec.prediction else None,
            sort_keys=True,
        ),
    )


def fusion_groups(
    resolved_points: Sequence[ResolvedScenario],
) -> list[list[int]]:
    """Partition point indices into stackable groups, in first-seen order.

    Unfusable points come back as singleton groups; fusable points group
    by :func:`fusion_key`.  Grouping never reorders results - indices map
    back into the sweep's point order.
    """
    groups: dict[object, list[int]] = {}
    order: list[list[int]] = []
    for index, resolved in enumerate(resolved_points):
        key = fusion_key(resolved)
        if key is None:
            order.append([index])
            continue
        if key not in groups:
            groups[key] = []
            order.append(groups[key])
        groups[key].append(index)
    return order


def _run_fused_group(
    members: Sequence[ResolvedScenario],
) -> list[ScenarioResult]:
    """Execute one compatibility group through the stacked engines."""
    first = members[0]
    spec = first.spec
    started = time.perf_counter()
    if first.kind == "player":
        estimates = estimate_player_rounds_many(
            first.protocol,
            [resolved.participant_source() for resolved in members],
            spec.n,
            [resolved.rng for resolved in members],
            channel=first.channel,
            advice_functions=[resolved.advice for resolved in members],
            trials=spec.trials,
            max_rounds=spec.max_rounds,
        )
    else:
        estimates = estimate_uniform_rounds_many(
            [resolved.protocol for resolved in members],
            [resolved.size_source for resolved in members],
            [resolved.rng for resolved in members],
            channel=first.channel,
            trials=spec.trials,
            max_rounds=spec.max_rounds,
        )
    # One stacked run has no meaningful per-point wall clock; record the
    # group's amortized share so sweep totals still add up.
    share = (time.perf_counter() - started) / len(members)
    return [
        package_result(
            resolved, estimate, engine=first.route.fused, elapsed_seconds=share
        )
        for resolved, estimate in zip(members, estimates)
    ]


def _run_fused(
    pending: Mapping[int, object], *, checkpoint: Callable, **options
) -> list[dict]:
    """The fused executor: stack compatible points, serial-run the rest.

    Checkpoint granularity is the fusion *group*: a stacked run either
    lands whole or not at all, so a resumed sweep re-fuses exactly the
    still-missing groups and every point keeps its stacked engine label.
    ``max_workers`` and ``fault_plan`` (in ``options``) go unused, as in
    the serial executor.
    """
    indices = list(pending)
    if spec_family(pending[indices[0]]).kind == "open":  # no stacked open engine
        return _run_serial(pending, checkpoint=checkpoint, **options)
    resolved_points: list[ResolvedScenario] = []
    shared: dict = {}  # this run's resolved workloads and predictions
    for index, point in pending.items():
        try:
            resolved_points.append(resolve_scenario(point, shared=shared))
        except Exception as error:
            raise SweepPointError(index, point, error) from error
    for group in fusion_groups(resolved_points):
        members = [indices[position] for position in group]
        try:
            if len(group) == 1:
                # Nothing to amortize (or unfusable): the serial
                # reference run, which re-resolves from the spec -
                # resolution consumes no randomness, so the duplicate
                # resolution is free of stream effects.
                point = pending[members[0]]
                group_results = [spec_family(point).run(point)]
            else:
                group_results = _run_fused_group(
                    [resolved_points[position] for position in group]
                )
        except Exception as error:
            raise SweepPointError(members[0], pending[members[0]], error) from error
        checkpoint(members, group_results)
    return []


def _run_supervised(pending: Mapping[int, object], **options) -> list[dict]:
    """The supervised executor with library-default failure policy.

    :mod:`repro.scenarios.supervised` is imported on first use, so a
    sweep that never supervises never loads it (or ``multiprocessing``).
    """
    from .supervised import make_supervised_executor

    return make_supervised_executor()(pending, **options)


_run_supervised.supervises = True

#: A sweep executor: ``executor(pending, *, max_workers, checkpoint,
#: fault_plan) -> failures``.  ``pending`` maps each grid index still to
#: run to its spec, in grid order; every completed point is reported as
#: ``checkpoint(grid_indices, results)``.  A failing point either raises
#: :class:`SweepPointError` with its grid index or, for an executor that
#: degrades, becomes an ``{"error", "attempts", "index"}`` entry of the
#: returned failure list.  :func:`run_sweep` refuses a fault plan with
#: worker faults unless the executor's ``supervises`` attribute is true.
Executor = Callable[..., "list[dict]"]

#: The built-in executors by name.
EXECUTORS: dict[str, Executor] = {
    "serial": _run_serial,
    "process": _run_process_pool,
    "fused": _run_fused,
    "supervised": _run_supervised,
}


def run_sweep(
    sweep: Sweep | Sequence[ScenarioSpec] | Sequence[OpenScenarioSpec],
    *,
    executor: str | Executor = "serial",
    max_workers: int | None = None,
    resume: "str | os.PathLike | None" = None,
    cache: "ResultStore | str | os.PathLike | None" = None,
    fault_plan: FaultPlan | None = None,
) -> SweepResult:
    """Execute a sweep (or an explicit point list) through an executor.

    Point results are returned in grid order regardless of executor;
    because every point is reproducible from its own spec, executors are
    interchangeable - asserting serial/process agreement is a test, not
    a hope.

    ``resume=`` names a checkpoint journal: completed points found there
    are replayed instead of re-executed (the ``resumed`` counter), every
    newly completed point (whole fused groups atomically) is appended,
    and a run interrupted mid-sweep resumes bit-identical to an
    uninterrupted one.  ``cache=`` is a content-addressed
    :class:`~repro.scenarios.store.ResultStore` (or a directory path for
    one) consulted before executing anything - a fully warm cache
    re-runs a sweep without invoking a single engine.  ``fault_plan=``
    injects scripted faults (:mod:`repro.scenarios.faults`): the driver
    crash works under every executor; worker faults need an executor
    that supervises workers (pass ``executor="supervised"``).

    Closed and open-system points share every executor, the store and
    the journal; a point list mixing the two families is refused.
    """
    if max_workers is not None:
        max_workers = _integer(max_workers, "sweep option 'max_workers'")
        if max_workers < 1:
            raise ScenarioError(
                f"sweep option 'max_workers' must be >= 1 or None, got {max_workers}"
            )
    points = sweep.points() if isinstance(sweep, Sweep) else list(sweep)
    if not points:
        raise ScenarioError("sweep expanded to zero points")
    if len({spec_family(point).kind for point in points}) > 1:
        raise ScenarioError("a sweep cannot mix open-system and closed specs")
    # Grid overrides only name failing points: expanded once, on demand.
    point_overrides = (
        functools.cache(sweep.point_overrides)
        if isinstance(sweep, Sweep)
        else lambda: [{} for _ in points]
    )
    if callable(executor):
        run = executor
        executor_name = str(
            getattr(executor, "executor_name", None)
            or getattr(executor, "__name__", "custom")
        )
    else:
        try:
            run = EXECUTORS[executor]
        except KeyError:
            raise ScenarioError(
                f"unknown executor {executor!r}; known: "
                f"{', '.join(sorted(EXECUTORS))}"
            ) from None
        executor_name = executor
    if (
        fault_plan is not None
        and fault_plan.has_worker_faults()
        and not getattr(run, "supervises", False)
    ):
        raise ScenarioError(
            f"executor {executor_name!r} does not supervise workers, so the "
            f"fault plan's crash/hang/corrupt faults would be silent no-ops; "
            f"use the 'supervised' executor for worker faults"
        )
    total = len(points)
    if fault_plan is not None:
        # A fault aimed past the grid would never fire: refuse the plan.
        for what in ("crash", "hang", "corrupt"):
            beyond = [index for index in getattr(fault_plan, what) if index >= total]
            if beyond:
                raise ScenarioError(
                    f"fault plan {what!r} names point {min(beyond)}, but the "
                    f"sweep has {total} points"
                )
        if (fault_plan.crash_driver_after or 0) > total:
            raise ScenarioError(
                f"fault plan field 'crash_driver_after' is "
                f"{fault_plan.crash_driver_after}, but the sweep has {total} points"
            )

    started = time.perf_counter()
    slots: list = [None] * total
    resumed = 0
    cache_hits = 0
    failures: list[dict] = []

    keys: list[str] | None = None
    if resume is not None or cache is not None:
        keys = [spec_key(point) for point in points]
    store = ResultStore.coerce(cache)
    journal: SweepJournal | None = None
    try:
        if resume is not None:
            assert keys is not None
            journal = SweepJournal(
                resume,
                sweep=sweep_key(keys),
                points=total,
                point_keys=keys,
            )
            for index, result in journal.replayed.items():
                slots[index] = result
                if store is not None:
                    # Backfill the store so a later cache-only run is
                    # fully warm even for journal-replayed points.
                    store.put(points[index], result, key=keys[index])
            resumed = len(journal.replayed)
        if store is not None:
            assert keys is not None
            for index in range(total):
                if slots[index] is not None:
                    continue
                hit = store.get(points[index], key=keys[index])
                if hit is None:
                    continue
                slots[index] = hit
                cache_hits += 1
                if journal is not None:
                    journal.append([(index, hit.to_dict())])

        crash_after = fault_plan.crash_driver_after if fault_plan else None
        completed_this_run = 0

        def checkpoint(indices: Sequence[int], results: Sequence) -> None:
            nonlocal completed_this_run
            entries: list[tuple[int, dict]] = []
            for index, result in zip(indices, results):
                slots[index] = result
                if journal is None and store is None:
                    continue
                result_dict = result.to_dict()  # one copy for journal and store
                if journal is not None:
                    entries.append((index, result_dict))
                if store is not None:
                    assert keys is not None
                    store.put(
                        points[index], result, key=keys[index], result_dict=result_dict
                    )
            if journal is not None and entries:
                journal.append(entries)
            completed_this_run += len(indices)
            if crash_after is not None and completed_this_run >= crash_after:
                raise SimulatedCrash(
                    f"injected driver crash after {completed_this_run} "
                    f"checkpointed point(s)"
                )

        if crash_after == 0:
            # "Before any point executes" - the journal header (if any)
            # is already on disk, exactly as a crash there would leave it.
            raise SimulatedCrash("injected driver crash before any point ran")

        pending = {
            index: point for index, point in enumerate(points) if slots[index] is None
        }
        if pending:
            try:
                manifest = run(
                    pending,
                    max_workers=max_workers,
                    checkpoint=checkpoint,
                    fault_plan=fault_plan,
                )
            except SweepPointError as error:
                raise SweepPointError(
                    error.index,
                    error.spec,
                    error.cause,
                    overrides=point_overrides()[error.index],
                ) from error.cause
            for failure in manifest:
                point = points[failure["index"]]
                failures.append(
                    {
                        **failure,
                        "name": point.label(),
                        "overrides": point_overrides()[failure["index"]],
                        "spec": point.to_dict(),
                    }
                )
    finally:
        if journal is not None:
            journal.close()

    results = [slot for slot in slots if slot is not None]
    if len(results) != total and not failures:
        raise ScenarioError(
            f"executor {executor_name!r} returned {len(results)} of {total} "
            f"point(s) without reporting failures"
        )
    return SweepResult(
        results=results,
        executor=executor_name,
        elapsed_seconds=time.perf_counter() - started,
        resumed=resumed,
        cache_hits=cache_hits,
        failures=failures,
    )
