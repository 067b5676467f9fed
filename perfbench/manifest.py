"""Write ``BENCHMARK.json`` from the benchmark's own tables.

Usage, from the repository root: ``python3 perfbench/manifest.py``.
The self-test ``ManifestTest`` fails while the file is stale.

The file's key set is fixed, so it holds each workload's ``why`` and
each metric's name, unit and direction; which end-to-end metric and
workload each per-layer metric should move lives beside it in
:data:`perfbench.layers.PER_LAYER`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.layers import END_TO_END, PER_LAYER, WORKLOAD_WHY  # noqa: E402

#: Seconds one run measures its op loop for.
RUN_SECONDS = 20


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better, *_ in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render())
