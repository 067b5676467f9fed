"""The supervised sweep executor: timeouts, bounded retry, degradation.

The built-in process pool (``executor="process"``) assumes workers are
well-behaved: a worker that wedges stalls the sweep forever, and a
worker that dies takes the pool down with a bare traceback.  The
supervised executor assumes the opposite - workers may crash, hang, or
return corrupted results (exactly the faults
:class:`~repro.scenarios.faults.FaultPlan` scripts) - and wraps each
point in its own supervised process:

* **per-point timeout** - a worker past its deadline is terminated and
  the attempt counts as failed;
* **bounded retry with backoff** - each point gets ``retries`` extra
  attempts, separated by exponentially growing sleeps;
* **result validation** - a returned result whose embedded spec does not
  match the point's spec is rejected as corrupt (the result crossed the
  process boundary as JSON; a mismatch means the worker answered the
  wrong question);
* **graceful degradation** - a point that exhausts its attempts is
  recorded in a structured failure manifest, keyed by grid index, and
  the sweep *continues*; :func:`~repro.scenarios.sweep.run_sweep`
  returns the points that did complete plus the manifest instead of
  raising.

Because every point still runs its family's runner - closed
:func:`~repro.scenarios.runner.run_scenario` or open
:func:`~repro.scenarios.open.run_open_scenario`, picked by
:func:`~repro.scenarios.spec.spec_family` - from its own serialized
spec, supervised results are bit-identical to the serial executor's -
supervision changes what happens on failure, never what a success
computes.

The built-in ``"supervised"`` entry of
:data:`~repro.scenarios.sweep.EXECUTORS` runs
:func:`make_supervised_executor` with library defaults, importing this
module on first use; the CLI builds one with the user's timeout/retry
settings instead.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from collections.abc import Callable, Mapping
from multiprocessing.connection import wait as _wait_connections

from ..core.named import Params
from .faults import FaultPlan
from .spec import ScenarioError, _integer, spec_family
from .sweep import _pool_context, _run_point_payload

__all__ = [
    "make_supervised_executor",
]

#: Exit status of a fault-injected worker crash - distinctive on purpose,
#: so a supervisor test failure names the injected death, not a generic 1.
CRASH_EXIT_CODE = 173


def _supervised_point_worker(
    conn, spec_data: dict, directive: str | None, hang_seconds: float
) -> None:
    """Worker entry: run one point, honoring an injected fault directive."""
    try:
        if directive == "crash":
            os._exit(CRASH_EXIT_CODE)
        if directive == "hang":
            # Never answer; the supervisor's deadline is the only way out.
            time.sleep(hang_seconds)
            os._exit(CRASH_EXIT_CODE)
        result = _run_point_payload(spec_data)
        if directive == "corrupt":
            # A wrong-question answer: the embedded spec no longer
            # matches the point, which validation must catch.
            result["spec"]["seed"] = int(result["spec"]["seed"]) + 1
        conn.send({"ok": True, "result": result})
    except Exception as error:  # pragma: no cover - crosses processes
        try:
            conn.send({"ok": False, "error": f"{type(error).__name__}: {error}"})
        except Exception:
            pass
    finally:
        conn.close()


class _Attempt:
    """One live supervised attempt at one point."""

    __slots__ = ("index", "number", "process", "conn", "deadline")

    def __init__(self, index, number, process, conn, deadline):
        self.index = index
        self.number = number
        self.process = process
        self.conn = conn
        self.deadline = deadline

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.conn.close()


def make_supervised_executor(
    *,
    timeout: float = 60.0,
    retries: int = 2,
    backoff: float = 0.05,
) -> Callable:
    """Build a supervised executor with the given failure policy.

    ``timeout`` is the per-attempt wall-clock budget in seconds;
    ``retries`` is how many *extra* attempts a failed point gets (so a
    point runs at most ``retries + 1`` times); ``backoff`` seeds the
    exponential sleep before retry ``a`` (``backoff * 2**(a-1)``).
    The returned callable is a sweep executor
    (:data:`~repro.scenarios.sweep.Executor`) that ``supervises``
    workers, so :func:`~repro.scenarios.sweep.run_sweep` hands it the
    fault plan's worker faults.
    """
    what = "supervised executor option"
    timeout = Params.check(timeout, float, f"{what} 'timeout'")
    retries = _integer(retries, f"{what} 'retries'")
    backoff = Params.check(backoff, float, f"{what} 'backoff'")
    if not (math.isfinite(timeout) and timeout > 0):
        raise ScenarioError(f"{what} 'timeout' must be finite and > 0, got {timeout}")
    if retries < 0:
        raise ScenarioError(f"{what} 'retries' must be >= 0, got {retries}")
    if not (math.isfinite(backoff) and backoff >= 0):
        raise ScenarioError(f"{what} 'backoff' must be finite and >= 0, got {backoff}")

    def supervised(
        pending: Mapping[int, object],
        *,
        max_workers: int | None,
        checkpoint: Callable,
        fault_plan: FaultPlan | None,
    ) -> list[dict]:
        if max_workers is None:
            max_workers = min(len(pending), multiprocessing.cpu_count())
        context = _pool_context()
        plan = fault_plan if fault_plan is not None else FaultPlan()

        failures: list[dict] = []
        waiting: list[tuple[int, int]] = [(index, 0) for index in pending]
        active: list[_Attempt] = []

        def launch(index: int, number: int) -> None:
            if number > 0 and backoff > 0:
                time.sleep(backoff * (2 ** (number - 1)))
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_supervised_point_worker,
                args=(
                    child_conn,
                    pending[index].to_dict(),
                    plan.directive(index, number),
                    plan.hang_seconds,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            active.append(
                _Attempt(
                    index,
                    number,
                    process,
                    parent_conn,
                    time.monotonic() + timeout,
                )
            )

        def attempt_failed(attempt: _Attempt, error: str) -> None:
            attempt.kill()
            active.remove(attempt)
            if attempt.number < retries:
                waiting.append((attempt.index, attempt.number + 1))
            else:
                failures.append(
                    {
                        "error": error,
                        "attempts": attempt.number + 1,
                        "index": attempt.index,
                    }
                )

        def attempt_succeeded(attempt: _Attempt, payload: dict) -> None:
            point = pending[attempt.index]
            result = spec_family(point).result.from_dict(payload)
            if result.spec != point:
                attempt_failed(
                    attempt,
                    "corrupted result: embedded spec does not match the "
                    "point spec",
                )
                return
            attempt.kill()
            active.remove(attempt)
            # Outside any try: a checkpoint-raised SimulatedCrash (or
            # journal error) must unwind, not count as a point failure.
            checkpoint([attempt.index], [result])

        try:
            while waiting or active:
                while waiting and len(active) < max_workers:
                    index, number = waiting.pop(0)
                    launch(index, number)
                deadline = min(attempt.deadline for attempt in active)
                poll = max(0.0, deadline - time.monotonic())
                ready = _wait_connections(
                    [attempt.conn for attempt in active], timeout=poll
                )
                by_conn = {attempt.conn: attempt for attempt in active}
                for conn in ready:
                    attempt = by_conn[conn]
                    try:
                        message = conn.recv()
                    except EOFError:
                        attempt.process.join()
                        code = attempt.process.exitcode
                        attempt_failed(
                            attempt,
                            f"worker died without answering (exit code {code})",
                        )
                        continue
                    if message.get("ok"):
                        attempt_succeeded(attempt, message["result"])
                    else:
                        attempt_failed(
                            attempt,
                            f"worker error: {message.get('error', 'unknown')}",
                        )
                now = time.monotonic()
                for attempt in list(active):
                    if now >= attempt.deadline:
                        attempt_failed(
                            attempt, f"timed out after {timeout:.6g}s"
                        )
        finally:
            for attempt in list(active):
                attempt.kill()

        return failures

    supervised.executor_name = "supervised"
    supervised.supervises = True
    return supervised
