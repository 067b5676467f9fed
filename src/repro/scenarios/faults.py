"""Crash injection for the sweep execution layer.

The execution-layer counterpart of :mod:`repro.channel.models`: where a
channel model deterministically perturbs *feedback* so the engines'
fault paths are testable, a :class:`FaultPlan` deterministically kills,
hangs or corrupts *workers* (and the sweep driver itself) at scripted
points, so the recovery paths - supervised retry, journal resume, the
failure manifest - are tested the same way jammed channels are.

Worker faults (``crash`` / ``hang`` / ``corrupt``) are honored by the
supervised executor, which owns worker processes and can observe a death
or a deadline; the built-in serial/process/fused executors have no
supervision to exercise, so handing them a plan with worker faults is an
error rather than a silent no-op.  The driver fault
(``crash_driver_after``) is honored by :func:`~repro.scenarios.sweep.run_sweep`
itself for every executor: after the configured number of points has
been checkpointed, the driver raises :class:`SimulatedCrash` - exactly
the "kill -9 between points" a resume test needs, with the journal left
in the state a real crash would leave it.

Plans are JSON-round-trippable so the CLI can inject faults
(``repro scenario sweep --inject-faults``) and CI can script a
crash-and-resume smoke without writing Python.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from ..core.named import Params
from .spec import JsonCodec, ScenarioError, _check_known_keys, _require_mapping

__all__ = [
    "SimulatedCrash",
    "FaultPlan",
    "fault_plan_from_json",
]


class SimulatedCrash(RuntimeError):
    """Raised by the driver-crash fault to simulate the process dying.

    Deliberately *not* a :class:`~repro.scenarios.spec.ScenarioError`:
    nothing in the sweep layer catches it, so it unwinds through
    ``run_sweep`` exactly like a SIGKILL would end the process - with
    the journal holding every checkpoint that completed before it.
    """


def _fault_map(data: object, what: str) -> dict[int, int]:
    """``{point index: attempt count}`` from JSON (string keys) or Python."""
    if not isinstance(data, Mapping):
        raise ScenarioError(f"fault plan {what!r} must be a mapping")
    plan: dict[int, int] = {}
    for raw_index, raw_count in data.items():
        label = f"fault plan {what!r} point {raw_index!r}"
        if isinstance(raw_index, str) and raw_index.isdecimal():
            raw_index = int(raw_index)  # JSON object keys are strings
        index = Params.check(raw_index, int, f"{label} index")
        count = Params.check(raw_count, int, f"{label} attempt count")
        if index < 0 or count < 0:
            raise ScenarioError(
                f"fault plan {what!r} indices and counts must be >= 0, "
                f"got {index}: {count}"
            )
        if count:
            plan[index] = count
    return plan


@dataclass(frozen=True)
class FaultPlan(JsonCodec):
    """Deterministic, scripted faults for one sweep execution.

    ``crash`` / ``hang`` / ``corrupt`` map a point's grid index to the
    number of attempts that suffer that fault; a point's attempts consume its
    faults in that order (first the crashes, then the hangs, then the
    corruptions) and succeed afterwards.  A count above the supervised
    executor's retry budget therefore exhausts the point into the
    failure manifest; a count at or below it exercises recovery.

    ``crash_driver_after`` kills the *sweep driver* (raising
    :class:`SimulatedCrash`) once that many points have been
    checkpointed this run - ``0`` crashes before any point executes.
    ``hang_seconds`` is how long a hung worker sleeps; tests pair it
    with a short supervised timeout.
    """

    crash: dict = field(default_factory=dict)
    hang: dict = field(default_factory=dict)
    corrupt: dict = field(default_factory=dict)
    crash_driver_after: int | None = None
    hang_seconds: float = 3600.0

    json_label = "fault plan"

    def __post_init__(self) -> None:
        object.__setattr__(self, "crash", _fault_map(self.crash, "crash"))
        object.__setattr__(self, "hang", _fault_map(self.hang, "hang"))
        object.__setattr__(self, "corrupt", _fault_map(self.corrupt, "corrupt"))
        if self.crash_driver_after is not None:
            after = Params.check(
                self.crash_driver_after, int, "fault plan field 'crash_driver_after'"
            )
            if after < 0:
                raise ScenarioError(
                    f"crash_driver_after must be >= 0 or None, got {after}"
                )
            object.__setattr__(self, "crash_driver_after", after)
        hang_seconds = Params.check(
            self.hang_seconds, float, "fault plan field 'hang_seconds'"
        )
        if hang_seconds <= 0:
            raise ScenarioError(f"hang_seconds must be > 0, got {hang_seconds}")
        object.__setattr__(self, "hang_seconds", hang_seconds)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def directive(self, index: int, attempt: int) -> str | None:
        """The fault a point's ``attempt`` (0-based) suffers, or ``None``."""
        crashes = self.crash.get(index, 0)
        hangs = self.hang.get(index, 0)
        corruptions = self.corrupt.get(index, 0)
        if attempt < crashes:
            return "crash"
        if attempt < crashes + hangs:
            return "hang"
        if attempt < crashes + hangs + corruptions:
            return "corrupt"
        return None

    def has_worker_faults(self) -> bool:
        """Whether any point-level (worker) fault is scripted."""
        return bool(self.crash or self.hang or self.corrupt)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "crash": {str(i): c for i, c in self.crash.items()},
            "hang": {str(i): c for i, c in self.hang.items()},
            "corrupt": {str(i): c for i, c in self.corrupt.items()},
            "crash_driver_after": self.crash_driver_after,
            "hang_seconds": self.hang_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        data = _require_mapping(data, "fault plan")
        _check_known_keys(
            data,
            {"crash", "hang", "corrupt", "crash_driver_after", "hang_seconds"},
            "fault plan",
        )
        return cls(**data)  # the keys are the fields; __post_init__ checks them


def fault_plan_from_json(text: str) -> FaultPlan:
    """Parse a fault plan from JSON text (the CLI's ``--inject-faults``)."""
    return FaultPlan.from_json(text)
