"""The repository benchmark: one workload, measured end to end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload closed_sweep --seed 2021 --seconds 20 --trace 0

Workloads (see :mod:`perfbench.workloads`): ``closed_sweep``,
``durable_sweep``, ``open_system``, ``cli_cold``.  Each is closed-loop:
one caller in one process, no pool.

* ``--trace 0`` prints the end-to-end metrics: ``setup_s`` (the median
  over several fresh processes of imports, workload construction and the
  first op), the median and tail op time, simulated trial-rounds per
  second and peak RSS.
* ``--trace 1`` alternates untraced and traced ops and prints the
  per-layer metrics of :data:`perfbench.layers.PER_LAYER`: layer self
  times per op, layer counts, the import chain, and
  ``trace.overhead_frac`` (traced over untraced median op time, minus 1).

Times are wall times whose CPU part is rescaled to one reference core
speed: the process and its children are pinned to one CPU, and a fixed
calibration kernel timed beside every op gives that core's current speed
(see :mod:`perfbench.calibration` and :func:`rescale`).  The raw wall
median is kept in the run record.

Every op is checked (see each workload's ``check``); setup also checks
the workload against independent references.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A JSON record of the run, stamped with the
commit, a machine fingerprint and the ``src/`` line count, is written to
``perfbench/results/``; a traced run also writes its spans there.

``--seed`` seeds every generated input.  :data:`DEFAULT_SEED` is the
seed the shared benchmark grids use; :data:`HELDOUT_SEED` is kept for
confirming a claimed gain on inputs it was not tuned on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path[:0] = [str(ROOT)]

from perfbench.layers import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    WORKLOAD_WHY,
    import_profile,
    layer_metrics,
)
from perfbench.manifest import RUN_SECONDS  # noqa: E402

DEFAULT_SEED = 2021
HELDOUT_SEED = 7919

#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 5
#: Span of calibration kernels that rescale one op (see :func:`measure`).
CALIBRATION_WINDOW_S = 1.0
#: Samples beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Untraced ops a run takes even when ``--seconds`` has run out.
MIN_OPS = TAIL_BEYOND + 1

#: Files whose absence means this is not a full checkout.
REQUIRED = (
    "src/repro/__init__.py",
    "benchmarks/sweep_workload.py",
    "benchmarks/opensys_workload.py",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-test scale: a few trials per point"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def timed_setup(args: argparse.Namespace, workdir: Path):
    """Import, construct and run the first op; also returns its wall and CPU time."""
    started, cpu = time.perf_counter(), cpu_seconds()
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    first = workload.op()
    elapsed, cpu = time.perf_counter() - started, cpu_seconds() - cpu
    workload.after_op(first)
    return workload, first, elapsed, cpu


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def rescale(wall: float, cpu: float, speed: float) -> float:
    """Wall time at the nominal core speed: only time on a CPU is scaled.

    Waiting off the CPU - an fsync, a child's disk read - does not get
    slower when a neighbour shares the core, so it is kept as measured.
    """
    cpu = min(cpu, wall)
    return wall - cpu + cpu * speed


def probe_setup(args: argparse.Namespace, calibration) -> float:
    """``timed_setup`` in a fresh process, so imports are cold.

    Returns its wall time rescaled to the nominal core speed.
    """
    command = [
        sys.executable, str(Path(__file__)), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])
    samples = [calibration.sample() for _ in range(2)]
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, check=True
    )
    samples += [calibration.sample() for _ in range(2)]
    probe = json.loads(completed.stdout.splitlines()[-1])
    return rescale(probe["setup_s"], probe["cpu_s"], calibration.speed(samples))


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it."""
    ordered = sorted(times)
    count = len(ordered)
    index = max(0, count - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / count


def peak_rss_mb(outcomes: list) -> float:
    """Peak RSS of this process, or of the processes the ops start.

    A workload whose op runs in child processes (``cli_cold``) records
    each op's ``peak_rss_kb``; the harness's own memory is left out.
    """
    children = [o.counters["peak_rss_kb"] for o in outcomes if "peak_rss_kb" in o.counters]
    peak = max(children) if children else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def stamp() -> dict:
    """Commit, machine fingerprint and ``src/`` size of this run."""
    commit = None
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = completed.stdout.strip() or None
    digest, lines = hashlib.sha256(), 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure(workload, seconds: float, trace: bool, tracer, calibration) -> dict:
    """The closed op loop; traced runs alternate untraced and traced ops.

    The calibration kernel runs before the first op and after every op.
    Each op's CPU time (see :func:`rescale`) is rescaled by the speed the
    kernels within ``CALIBRATION_WINDOW_S / 2`` of the op measured - the
    two adjacent ones for a long op, several for a short one.
    """
    ops, failures = [], []  # (traced, start, wall s, CPU s, outcome or None)
    calibrations = []  # (midpoint, kernel seconds)

    def calibrate() -> None:
        began = time.perf_counter()
        seconds = calibration.sample()
        calibrations.append((began + seconds / 2, seconds))

    calibrate()
    started = time.perf_counter()
    deadline, hard_deadline = started + seconds, started + max(2 * seconds, 30.0)
    while True:
        traced = trace and len(ops) % 2 == 1
        outcome, elapsed, cpu, began = None, 0.0, 0.0, time.perf_counter()
        try:
            if traced:
                with tracer.span("op"):
                    began, cpu = time.perf_counter(), cpu_seconds()
                    outcome = workload.traced_op(tracer)
                    elapsed, cpu = time.perf_counter() - began, cpu_seconds() - cpu
            else:
                began, cpu = time.perf_counter(), cpu_seconds()
                outcome = workload.op()
                elapsed, cpu = time.perf_counter() - began, cpu_seconds() - cpu
            workload.after_op(outcome)
            # Every op, traced or not, is checked against the same
            # reference, so traced results equal untraced ones.
            problems = workload.check(outcome)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            problems = [f"op {len(ops) + 1} raised"]
            outcome = None
        if problems:
            failures.append(problems)
        if outcome is not None:
            outcome.value = None  # keep phases and counters, not results
        ops.append((traced, began, elapsed, cpu, outcome))
        calibrate()
        now = time.perf_counter()
        done = sum(1 for op in ops if not op[0] and op[4] is not None)
        if now >= hard_deadline or (now >= deadline and done >= MIN_OPS):
            break

    times = {False: [], True: []}
    wall, untraced = [], []
    half = CALIBRATION_WINDOW_S / 2
    for traced, began, elapsed, cpu, outcome in ops:
        if outcome is None:
            continue
        # The kernels just before and just after the op always qualify.
        speed = calibration.speed([
            seconds for midpoint, seconds in calibrations
            if began - half <= midpoint <= began + elapsed + half
        ])
        scaled = rescale(elapsed, cpu, speed)
        times[traced].append(scaled)
        if not traced:
            wall.append(elapsed)
            factor = scaled / elapsed
            outcome.phases = {key: value * factor for key, value in outcome.phases.items()}
            untraced.append(outcome)
    return {
        "attempted": len(ops),
        "failures": failures,
        "untraced_times": times[False],
        "traced_times": times[True],
        "wall_times": wall,
        "speed": calibration.speed([seconds for _, seconds in calibrations]),
        "untraced": untraced,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"not a repository checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    if hasattr(os, "sched_setaffinity") and not args.setup_probe:
        # One core for this process and every child it starts, so the
        # calibration kernel measures the core the op runs on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            _, _, elapsed, cpu = timed_setup(args, workdir)
            print(json.dumps({"setup_s": elapsed, "cpu_s": cpu}))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args: argparse.Namespace, workdir: Path) -> int:
    from perfbench.calibration import Calibration
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, child_env

    calibration = Calibration(WORKLOADS[args.workload].calibration)
    setup_samples = [probe_setup(args, calibration) for _ in range(SETUP_PROBES)]
    workload, first, *_ = timed_setup(args, workdir)

    setup_problems = workload.reference_problems(first) + workload.check(first)
    tracer = Tracer()
    loop = measure(workload, args.seconds, bool(args.trace), tracer, calibration)
    untraced_times = loop["untraced_times"]
    failed = len(loop["failures"]) + len(setup_problems)
    attempted = loop["attempted"]
    p50 = statistics.median(untraced_times)
    tail_value, tail_percentile = tail(untraced_times)
    problems = setup_problems + [p for op_problems in loop["failures"] for p in op_problems]
    extras = {
        "failure_rate": failed / attempted,
        "op_ms_tail_percentile": tail_percentile,
        "op_samples": len(untraced_times),
        "op_wall_ms_p50": 1e3 * statistics.median(loop["wall_times"]),
        "setup_samples_s": setup_samples,
        "calibration_speed": loop["speed"],
        "trial_rounds_per_op": first.trial_rounds,
    }
    for phase in first.phases:  # durable: cold/warm/resume; cli: run/sweep
        extras[f"{phase}_ms_p50"] = 1e3 * statistics.median(
            outcome.phases[phase] for outcome in loop["untraced"]
        )
    if args.trace:
        traced_times = loop["traced_times"]
        overhead = statistics.median(traced_times) / p50 - 1.0 if traced_times else 0.0
        speed = loop["speed"]
        extra = {name: ms * speed for name, ms in import_profile(child_env()).items()}
        extra["trace.overhead_frac"] = overhead
        values = layer_metrics(tracer, len(traced_times), loop["untraced"], extra, speed)
        units = {name: unit for name, unit, *_ in PER_LAYER}
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "op_ms_p50": p50 * 1e3,
            "op_ms_tail": tail_value * 1e3,
            "trial_rounds_per_s": first.trial_rounds / p50,
            "peak_rss_mb": peak_rss_mb(loop["untraced"]),
        }
        units = {name: unit for name, unit, *_ in END_TO_END}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    run_stamp = stamp()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {attempted}  failed {failed}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:16.6g} {metric['unit']}")
    for name, value in extras.items():
        print(f"  {name:28s} {json.dumps(value)}")
    for problem in problems[:10]:
        print(f"  problem: {problem}")
    print(f"stamp {json.dumps(run_stamp)}")
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metrics": metrics, "extras": extras, "stamp": run_stamp,
        "problems": problems[:100],
    }
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2)
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
