"""Calibration kernels: the current speed of the core the benchmark runs on.

The benchmark shares its cores with other virtual machines, which slow
everything on them by up to ~1.6x for seconds at a time.  A fixed kernel
that never touches the program is timed beside each op, and the CPU
part of the op's wall time is rescaled by ``nominal / kernel time``
(``perfbench.run.rescale``), where ``nominal`` is
the kernel's wall time on an uncontended core of the machine the bounds
were tuned on (a 2-vCPU Intel Xeon VM).  A change to the program cannot
move the kernel, so it moves the rescaled time exactly as it moves the
wall time.

Contention slows kinds of work unequally, so there are two kernels, and
each workload uses the one closest to its own mix.  On the tuning
machine, over 90-120 s of changing contention, the interquartile spread
of ten chunk medians of op time over kernel time was 2-8% with the
matching kernel and 5-13% with the other:

* ``numeric`` - an interpreter loop, many small-array numpy calls like
  the engines' per-round work, and a large sort;
* ``serialization`` - JSON encoding and decoding plus SHA-256 hashing,
  the work of the result store, the journal and the result codecs.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

_ROWS = {
    "rows": [
        {"index": i, "value": i * 0.5, "name": f"point-{i}", "tags": [i, i + 1]}
        for i in range(300)
    ]
}


def _numeric() -> None:
    table: dict[int, int] = {}
    for value in range(40_000):
        table[value % 997] = table.get(value % 997, 0) + value
    small = np.arange(512, dtype=np.float64)
    for _ in range(600):
        small = np.where(small > 100.0, small * 0.5, small + 1.0)
    large = np.arange(100_000, dtype=np.float64)[::-1]
    for _ in range(6):
        np.sort(large)


def _serialization() -> None:
    for _ in range(12):
        text = json.dumps(_ROWS, sort_keys=True)
        json.loads(text)
        hashlib.sha256(text.encode()).hexdigest()


#: Kernel name -> (kernel, nominal seconds).
KERNELS = {
    "numeric": (_numeric, 0.012),
    "serialization": (_serialization, 0.009),
}


class Calibration:
    """Times one kernel; turns kernel times into a speed factor."""

    def __init__(self, kind: str) -> None:
        self.kernel, self.nominal = KERNELS[kind]

    def sample(self) -> float:
        started = time.perf_counter()
        self.kernel()
        return time.perf_counter() - started

    def speed(self, samples: list[float]) -> float:
        """Multiplier from wall time to time at the nominal core speed."""
        return self.nominal / statistics.median(samples)
