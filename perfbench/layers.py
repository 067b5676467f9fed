"""The benchmark's tables and the per-layer aggregation of a traced run.

:data:`WORKLOAD_WHY`, :data:`END_TO_END` and :data:`PER_LAYER` are the
single source of the workload names and reasons and of the metric names,
units, directions and bounds that ``BENCHMARK.json`` lists (see
:mod:`perfbench.manifest`).  Each per-layer row also records which
end-to-end metric, on which workload, the layer should move, and where
it should stay flat - later changes cite these names when they claim a
gain.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

#: Workload name -> why it was chosen.
WORKLOAD_WHY = {
    "closed_sweep": (
        "engine-bound fused run of 80 points on all three stacked engines, "
        "plus grid expansion and resolution; no store or journal"
    ),
    "durable_sweep": (
        "CD grid on the serial executor: cold run with store and fsynced "
        "journal, warm re-run from disk, journal-only resume; bypasses fusion"
    ),
    "open_system": (
        "open driver under Poisson arrivals, plain and retry/shed lifecycles: "
        "stream plumbing and bookkeeping, no sweep layer"
    ),
    "cli_cold": (
        "cold python -m repro scenario run and fused --cd-grid sweep "
        "subprocesses: the only workload that sees the import chain"
    ),
}

#: (name, unit, better, bound, meaning).  ``bound`` is the share of the
#: parent's median by which the metric may worsen before a change counts
#: as a regression.  Times are wall times whose CPU part is rescaled to
#: the reference core speed (see :mod:`perfbench.calibration`).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "imports, workload construction and the first (warm-up) op; median of "
     "several fresh processes"),
    ("op_ms_p50", "ms", "lower", 0.25, "median time of one op"),
    ("op_ms_tail", "ms", "lower", 0.25,
     "highest percentile of op time with at least 10 samples beyond it"),
    ("trial_rounds_per_s", "1/s", "higher", 0.25,
     "simulated trial-rounds per second of a median op"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "maximum RSS of the workload process (cli_cold: of the CLI processes "
     "its ops start)"),
]

_SWEEP = "op_ms_p50 on closed_sweep; warm_ms_p50, resume_ms_p50 on durable_sweep"
_RUNNER = "op_ms_p50 on closed_sweep and durable_sweep"
_ENGINE = (
    "trial_rounds_per_s, op_ms_p50 on closed_sweep; cold op_ms_p50 on durable_sweep"
)
_STORE = "op_ms_p50, warm_ms_p50, resume_ms_p50 on durable_sweep"
_OPEN = "op_ms_p50, trial_rounds_per_s on open_system"
_CLI = "op_ms_p50 on cli_cold; setup_s on every workload"

#: (name, unit, better, layer, moves, flat on).
PER_LAYER = [
    ("sweep.expand_ms", "ms", "lower", "scenarios.sweep", _SWEEP, "open_system"),
    ("sweep.expand_calls", "count", "lower", "scenarios.sweep", _SWEEP, "open_system"),
    ("sweep.route_ms", "ms", "lower", "scenarios.sweep", _SWEEP, "open_system"),
    ("sweep.groups", "count", "lower", "scenarios.sweep", _SWEEP, "open_system"),
    ("sweep.fused_frac", "ratio", "higher", "scenarios.sweep", _SWEEP, "open_system"),
    ("warm_ms_p50", "ms", "lower", "scenarios.store", _STORE, "closed_sweep, open_system"),
    ("resume_ms_p50", "ms", "lower", "scenarios.store", _STORE,
     "closed_sweep, open_system"),
    ("runner.resolve_ms", "ms", "lower", "scenarios.runner", _RUNNER, "open_system"),
    ("runner.resolve_calls", "count", "lower", "scenarios.runner", _RUNNER, "open_system"),
    ("runner.package_ms", "ms", "lower", "scenarios.runner", _RUNNER, "open_system"),
    ("runner.codec_ms", "ms", "lower", "scenarios.runner", _RUNNER, "open_system"),
    ("engine.schedule_ms", "ms", "lower", "channel.batch", _ENGINE,
     "warm_ms_p50, resume_ms_p50"),
    ("engine.history_ms", "ms", "lower", "channel.batch", _ENGINE,
     "warm_ms_p50, resume_ms_p50"),
    ("engine.player_ms", "ms", "lower", "channel.batch_players", _ENGINE,
     "warm_ms_p50, resume_ms_p50"),
    ("engine.trial_rounds", "count", "higher", "analysis.montecarlo", _ENGINE,
     "warm_ms_p50, resume_ms_p50"),
    ("engine.trial_rounds_per_s", "1/s", "higher", "analysis.montecarlo", _ENGINE,
     "warm_ms_p50, resume_ms_p50"),
    ("store.key_ms", "ms", "lower", "scenarios.store", _STORE, "closed_sweep, open_system"),
    ("store.get_ms", "ms", "lower", "scenarios.store", _STORE, "closed_sweep, open_system"),
    ("store.put_ms", "ms", "lower", "scenarios.store", _STORE, "closed_sweep, open_system"),
    ("store.hits", "count", "higher", "scenarios.store", _STORE, "closed_sweep, open_system"),
    ("store.misses", "count", "lower", "scenarios.store", _STORE,
     "closed_sweep, open_system"),
    ("store.hit_ratio", "ratio", "higher", "scenarios.store", _STORE,
     "closed_sweep, open_system"),
    ("store.bytes", "B", "lower", "scenarios.store", _STORE, "closed_sweep, open_system"),
    ("journal.append_ms", "ms", "lower", "scenarios.store", _STORE,
     "closed_sweep, open_system"),
    ("journal.appends", "count", "lower", "scenarios.store", _STORE,
     "closed_sweep, open_system"),
    ("journal.bytes", "B", "lower", "scenarios.store", _STORE, "closed_sweep, open_system"),
    ("journal.replay_ms", "ms", "lower", "scenarios.store", _STORE,
     "closed_sweep, open_system"),
    ("open.resolve_ms", "ms", "lower", "scenarios.open", _OPEN,
     "closed_sweep, durable_sweep"),
    ("open.plain_engine_ms", "ms", "lower", "opensys.driver", _OPEN,
     "closed_sweep, durable_sweep"),
    ("open.retry_engine_ms", "ms", "lower", "opensys.driver", _OPEN,
     "closed_sweep, durable_sweep"),
    ("open.trial_rounds_per_s", "1/s", "higher", "opensys.driver", _OPEN,
     "closed_sweep, durable_sweep"),
    ("open.summary_ms", "ms", "lower", "opensys.latency", _OPEN,
     "closed_sweep, durable_sweep"),
    ("open.codec_ms", "ms", "lower", "scenarios.open", _OPEN, "closed_sweep, durable_sweep"),
    ("open.arrivals", "count", "higher", "opensys.driver", _OPEN,
     "closed_sweep, durable_sweep"),
    ("open.completed", "count", "higher", "opensys.driver", _OPEN,
     "closed_sweep, durable_sweep"),
    ("open.attempts", "count", "lower", "opensys.driver", _OPEN,
     "closed_sweep, durable_sweep"),
    ("open.goodput_ratio", "ratio", "higher", "opensys.driver", _OPEN,
     "closed_sweep, durable_sweep"),
    ("cli.interpreter_ms", "ms", "lower", "interpreter", _CLI,
     "op_ms_p50 of the in-process workloads"),
    ("cli.run_ms", "ms", "lower", "repro.cli", _CLI, "op_ms_p50 of the in-process workloads"),
    ("cli.sweep_ms", "ms", "lower", "repro.cli", _CLI,
     "op_ms_p50 of the in-process workloads"),
    ("import.total_ms", "ms", "lower", "import chain", _CLI,
     "op_ms_p50 of the in-process workloads"),
    ("import.numpy_ms", "ms", "lower", "import chain", _CLI,
     "op_ms_p50 of the in-process workloads"),
    ("import.analysis_exact_ms", "ms", "lower", "import chain", _CLI,
     "op_ms_p50 of the in-process workloads"),
    ("import.experiments_ms", "ms", "lower", "import chain", _CLI,
     "op_ms_p50 of the in-process workloads"),
    ("import.scenarios_ms", "ms", "lower", "import chain", _CLI,
     "op_ms_p50 of the in-process workloads"),
    ("trace.overhead_frac", "ratio", "lower", "the tracing itself", "-", "-"),
]

#: Modules whose cumulative ``-X importtime`` cost is reported.
IMPORTS = {
    "import.numpy_ms": "numpy",
    "import.analysis_exact_ms": "repro.analysis.exact",
    "import.experiments_ms": "repro.experiments",
    "import.scenarios_ms": "repro.scenarios",
}

#: Fresh interpreters timed per import measurement.
IMPORT_SAMPLES = 5


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative milliseconds per module from ``-X importtime`` output.

    ``import.total_ms`` sums the top-level ``repro`` entries; each module
    in :data:`IMPORTS` reports the cumulative time of its first import.
    """
    found: dict[str, float] = {}
    total = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        name = name_field.strip()
        milliseconds = int(cumulative) / 1e3
        if name_field[1:2] != " " and name.split(".")[0] == "repro":
            total += milliseconds
        found.setdefault(name, milliseconds)
    metrics = {"import.total_ms": total}
    for metric, module in IMPORTS.items():
        metrics[metric] = found.get(module, 0.0)
    return metrics


def import_profile(env: dict) -> dict[str, float]:
    """Bare-interpreter start and the ``repro.cli`` import chain, as medians."""
    interpreter, profiles = [], []
    for _ in range(IMPORT_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interpreter.append(time.perf_counter() - started)
        completed = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            env=env, check=True, capture_output=True, text=True,
        )
        profiles.append(parse_importtime(completed.stderr))
    metrics = {"cli.interpreter_ms": _median(interpreter) * 1e3}
    for name in profiles[0]:
        metrics[name] = _median(profile[name] for profile in profiles)
    return metrics


def layer_metrics(
    tracer, traced_ops: int, untraced: list, extra: dict, speed: float = 1.0
) -> dict:
    """Per-op per-layer numbers from the traced ops' spans.

    ``untraced`` are the interleaved untraced outcomes (phase medians
    come from them, already rescaled); ``extra`` holds what was measured
    outside the spans (import chain, tracing overhead).  Span times are
    rescaled by the run's calibration ``speed`` like the end-to-end ones.
    """
    own = {name: seconds * speed for name, seconds in tracer.self_seconds().items()}
    calls = tracer.calls()
    attrs = tracer.attr_totals()

    def per_op(value: float) -> float:
        return value / traced_ops

    def ms(span: str) -> float:
        return per_op(own.get(span, 0.0)) * 1e3

    def phase_ms(phase: str) -> float:
        return _median(o.phases[phase] for o in untraced if phase in o.phases) * 1e3

    def counter(name: str) -> float:
        return _median(o.counters[name] for o in untraced if name in o.counters)

    engines = ("engine.schedule", "engine.history", "engine.player")
    engine_rounds = sum(attrs.get(f"{name}.trial_rounds", 0.0) for name in engines)
    engine_seconds = sum(own.get(name, 0.0) for name in engines)
    opens = ("open.plain_engine", "open.retry_engine")

    def open_total(attr: str) -> float:
        return sum(attrs.get(f"{name}.{attr}", 0.0) for name in opens)

    hits, misses = attrs.get("store.get.hits", 0.0), attrs.get("store.get.misses", 0.0)
    metrics = {
        "sweep.expand_ms": ms("sweep.expand"),
        "sweep.expand_calls": per_op(calls.get("sweep.expand", 0)),
        "sweep.route_ms": ms("sweep.route"),
        "sweep.groups": per_op(attrs.get("sweep.route.groups", 0.0)),
        "sweep.fused_frac": _ratio(
            attrs.get("sweep.route.fused_points", 0.0),
            attrs.get("sweep.route.points", 0.0),
        ),
        "warm_ms_p50": phase_ms("warm"),
        "resume_ms_p50": phase_ms("resume"),
        "runner.resolve_ms": ms("runner.resolve"),
        "runner.resolve_calls": per_op(calls.get("runner.resolve", 0)),
        "runner.package_ms": ms("runner.package"),
        "runner.codec_ms": ms("runner.codec"),
        "engine.schedule_ms": ms("engine.schedule"),
        "engine.history_ms": ms("engine.history"),
        "engine.player_ms": ms("engine.player"),
        "engine.trial_rounds": per_op(engine_rounds),
        "engine.trial_rounds_per_s": _ratio(engine_rounds, engine_seconds),
        "store.key_ms": ms("store.key"),
        "store.get_ms": ms("store.get"),
        "store.put_ms": ms("store.put"),
        "store.hits": per_op(hits),
        "store.misses": per_op(misses),
        "store.hit_ratio": _ratio(hits, hits + misses),
        "store.bytes": counter("store.bytes"),
        "journal.append_ms": ms("journal.append"),
        "journal.appends": per_op(calls.get("journal.append", 0)),
        "journal.bytes": counter("journal.bytes"),
        "journal.replay_ms": ms("journal.replay"),
        "open.resolve_ms": ms("open.resolve"),
        "open.plain_engine_ms": ms("open.plain_engine"),
        "open.retry_engine_ms": ms("open.retry_engine"),
        "open.trial_rounds_per_s": _ratio(
            open_total("trial_rounds"), sum(own.get(name, 0.0) for name in opens)
        ),
        "open.summary_ms": ms("open.summary"),
        "open.codec_ms": ms("open.codec"),
        "open.arrivals": per_op(open_total("arrivals")),
        "open.completed": per_op(open_total("completed")),
        "open.attempts": per_op(open_total("attempts")),
        "open.goodput_ratio": _ratio(open_total("completed"), open_total("attempts")),
        "cli.run_ms": phase_ms("run"),
        "cli.sweep_ms": phase_ms("sweep"),
    }
    metrics.update(extra)
    return metrics
