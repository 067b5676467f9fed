"""Run-to-run spread of the end-to-end metrics across seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workloads closed_sweep open_system --runs 10

Runs ``perfbench/run.py`` once per seed (seeds ``1..runs``) for each
workload, one run at a time, and prints each metric's median and its
interquartile range as a share of the median next to the metric's bound.
The run fails (exit 1) when a spread exceeds its bound.  A spread above
a third of its bound passes but is marked ``loose``: a later comparison
of two medians has little margin left there.  ``setup_s`` is exempt from
the spread rule; only its median is compared between runs.  The raw
values are written to ``perfbench/results/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT)]

from perfbench.layers import END_TO_END, WORKLOAD_WHY  # noqa: E402
from perfbench.manifest import RUN_SECONDS  # noqa: E402


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median, with ``statistics.quantiles``."""
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (quartiles[2] - quartiles[0]) / median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOAD_WHY))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    args = parser.parse_args(argv)
    bounds = {name: bound for name, _, _, bound, _ in END_TO_END}
    passed = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            completed = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(completed.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect result", file=sys.stderr)
                passed = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        (BENCH / "results").mkdir(exist_ok=True)
        (BENCH / "results" / f"spread-{workload}.json").write_text(json.dumps(values))
        print(workload)
        for name, bound in bounds.items():
            median, share = spread(values[name])
            if name == "setup_s":
                status = "exempt"
            elif share > bound:
                status, passed = "WIDE", False
            else:
                status = "ok" if share < bound / 3 else "loose"
            print(f"  {name:20s} median {median:14.6g}  spread {share:7.4f}  "
                  f"bound {bound:5.2f}  {status}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
