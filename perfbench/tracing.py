"""Layer spans recorded from outside the program.

:func:`installed` wraps each layer's public entry points *where their
callers look them up* - module globals such as
``repro.scenarios.sweep.resolve_scenario`` and methods on classes such
as ``ResultStore.get`` - so no file under ``src/`` changes.  Each wrapped
call records one :class:`Span` (name, start, end, parent, attributes) in
memory; :meth:`Tracer.dump` writes them out at the end of a run.  A
layer's self time is its span minus the time its child spans cover.

Wrappers exist only inside ``with installed(tracer):``; outside it every
entry point is the original object again, so untraced operations run the
unmodified program.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


class Tracer:
    """An in-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def open(self, name: str) -> Span:
        span = Span(
            name, time.perf_counter(), parent=self._stack[-1] if self._stack else None
        )
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def adopt(self, records: list[dict]) -> None:
        """Graft spans recorded by a child process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for record in records:
            span = Span(**record)
            span.parent = parent if span.parent is None else span.parent + base
            self.spans.append(span)

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            totals[span.name] += span.end - span.start - covered[index]
        return dict(totals)

    def calls(self) -> dict[str, int]:
        counts: dict[str, int] = defaultdict(int)
        for span in self.spans:
            counts[span.name] += 1
        return dict(counts)

    def attr_totals(self) -> dict[str, float]:
        """``"<span>.<attr>"`` summed over every span carrying it."""
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            for key, value in span.attrs.items():
                totals[f"{span.name}.{key}"] += value
        return dict(totals)

    def records(self) -> list[dict]:
        return [asdict(span) for span in self.spans]

    def dump(self, path: str | os.PathLike) -> None:
        with open(path, "w") as stream:
            for record in self.records():
                stream.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# Span attributes, read from arguments and results after the span closes
# ----------------------------------------------------------------------
def _route_attrs(args, kwargs, groups) -> dict:
    return {
        "groups": len(groups),
        "points": sum(len(group) for group in groups),
        "fused_points": sum(len(group) for group in groups if len(group) > 1),
    }


def _get_attrs(args, kwargs, result) -> dict:
    return {"hits": int(result is not None), "misses": int(result is None)}


def _engine_attrs(args, kwargs, results) -> dict:
    batch = results if isinstance(results, list) else [results]
    return {"trial_rounds": sum(int(result.rounds.sum()) for result in batch)}


def _journal_name(args, kwargs) -> str:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return "journal.replay" if os.path.exists(path) else "journal.create"


def _open_engine_name(args, kwargs) -> str:
    retry = kwargs.get("retry")
    plain = retry is None or retry.name == "give-up"
    return "open.plain_engine" if plain else "open.retry_engine"


def _open_attrs(args, kwargs, outcome) -> dict:
    store = outcome.store
    return {
        "trial_rounds": kwargs["trials"] * kwargs["rounds"],
        "arrivals": store.arrivals,
        "completed": store.completed,
        "attempts": store.attempts,
    }


def _targets() -> list[tuple[object, str, str | Callable, Callable | None]]:
    """``(owner, attribute, span name, attribute reader)`` per entry point."""
    from repro.analysis import montecarlo
    from repro.channel import batch
    from repro.opensys.latency import LatencyStore
    from repro.scenarios import open as open_module
    from repro.scenarios import runner, store, sweep

    return [
        (sweep.Sweep, "points", "sweep.expand", None),
        (sweep.Sweep, "point_overrides", "sweep.expand", None),
        (sweep, "fusion_groups", "sweep.route", _route_attrs),
        (sweep, "resolve_scenario", "runner.resolve", None),
        (runner, "resolve_scenario", "runner.resolve", None),
        (sweep, "package_result", "runner.package", None),
        (runner, "package_result", "runner.package", None),
        (runner.ScenarioResult, "to_dict", "runner.codec", None),
        (runner.ScenarioResult, "from_dict", "runner.codec", None),
        (sweep, "spec_key", "store.key", None),
        (store.ResultStore, "get", "store.get", _get_attrs),
        (store.ResultStore, "put", "store.put", None),
        (store.SweepJournal, "append", "journal.append", None),
        (store.SweepJournal, "__init__", _journal_name, None),
        (montecarlo, "run_schedule_stacked", "engine.schedule", _engine_attrs),
        (batch, "run_schedule_stacked", "engine.schedule", _engine_attrs),
        (montecarlo, "run_history_stacked", "engine.history", _engine_attrs),
        (batch, "run_history_stacked", "engine.history", _engine_attrs),
        (montecarlo, "run_players_stacked", "engine.player", _engine_attrs),
        (montecarlo, "run_players_batch", "engine.player", _engine_attrs),
        (open_module, "resolve_open_scenario", "open.resolve", None),
        (open_module, "run_open", _open_engine_name, _open_attrs),
        (LatencyStore, "summary", "open.summary", None),
        (open_module.OpenScenarioResult, "to_dict", "open.codec", None),
        (open_module.OpenScenarioResult, "from_dict", "open.codec", None),
    ]


def _wrap(tracer: Tracer, original, name, read_attrs):
    wrapper_type = type(original) if isinstance(original, classmethod) else None
    function = original.__func__ if wrapper_type else original

    @functools.wraps(function)
    def traced(*args, **kwargs):
        span = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.close(span)
        if read_attrs is not None:
            span.attrs.update(read_attrs(args, kwargs, result))
        return result

    return wrapper_type(traced) if wrapper_type else traced


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Route every layer entry point through ``tracer`` for the block."""
    saved = []
    try:
        for owner, attribute, name, read_attrs in _targets():
            original = inspect.getattr_static(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, original, name, read_attrs))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
