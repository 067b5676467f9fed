"""Vectorized batch execution of uniform protocols.

The scalar engine (:mod:`repro.channel.simulator`) runs one execution at a
time: a Python loop per round, one channel draw per round, per trial.
Monte Carlo estimation repeats that thousands of times.  This module
advances **all trials of a batch in lockstep** instead, one round per
iteration (one draw block, for a faithful schedule run), retiring solved
trials as it goes.

Why the batch draw is faithful (paper Section 2.2)
--------------------------------------------------
Uniform protocols are identity-oblivious: in every round all ``k``
participants transmit independently with the *same* probability ``p``, so
the channel state of the round is **exactly** ``Binomial(k, p)`` - which
participants transmitted is irrelevant to both the channel outcome and the
protocol's future behaviour.  Moreover the engines never consume the count
itself, only the trichotomy silence / success / collision, whose exact
probabilities are ``(1-p)^k``, ``kp(1-p)^(k-1)`` and the remainder.  A
round of a trial is therefore simulated exactly by **one uniform draw**
``u`` compared against those two precomputed band edges - the same
distribution as drawing the binomial count, computed with one vectorized
``rng.random`` call over the still-live trials instead of per-trial
Python-level calls.  (This mirrors how round-driven network simulators
batch their event loops.)

One round loop, two probability sources
---------------------------------------
The stacked loop (:func:`_run_stacked`) advances many *independent
points* - each a whole Monte Carlo batch with its own generator,
participant counts and protocol - through one shared round loop.  It
owns everything a round does whatever the protocol: the pre-drawn
uniform blocks (point ``j``'s draws come from ``rngs[j]`` in exactly the
order a solo run would consume them, so a stacked run is bit-identical
per point to running the points one at a time - the fused sweep
executor's contract - and a solo run *is* a 1-point stacked run), the
band compare, the perturbation by an active channel model, and the
retirement and censoring of trials.  A *probability source* supplies
only what depends on the protocol kind: each live trial's band edges
this round, which trials' protocols give up, and how a survivor's state
moves on.

* **Schedule source** (:func:`run_schedule_stacked`) - for protocols
  whose full probability sequence is known in advance
  (:meth:`~repro.core.protocol.UniformProtocol.batch_schedule` returns a
  :class:`~repro.core.protocol.BatchSchedule`; the no-CD family of
  Section 2.1).  No session objects at all: band edges are precomputed
  over a window of rounds per distinct ``(point, k)``, and a one-shot
  point gives up at its horizon.  Such a schedule is oblivious - a
  trial's outcome in a round depends only on its own uniform and that
  round's edges - so a faithful run settles each pre-drawn block in one
  step: the block's uniforms against the block's edges, each trial
  retiring at its first hit.  Under an active channel model a round
  costs one gather plus two compares.

* **History source** (:func:`run_history_stacked`) - for
  feedback-driven (CD) protocols with deterministic sessions.  All
  players of a CD execution see the same collision history
  ``b_1 b_2 ... b_r``, and a uniform CD algorithm is a deterministic
  function of that history (Section 2.1) - so two trials with identical
  histories will use identical probabilities forever until their
  histories diverge.  Each live trial carries an integer node id into a
  **history trie** (:class:`_HistoryArena`) memoizing the history ->
  probability function, so a round costs one memoized
  ``next_probability()`` per *distinct history ever seen* (one session
  fork per trie node, amortized over all trials, rounds and stacked
  points), band edges computed per live trial from its node's memoized
  probability, and one deduplicated child gather that moves every
  survivor down its observed branch.  Points sharing a
  :meth:`~repro.core.protocol.UniformProtocol.history_signature` share
  one trie.  On a no-CD channel every observation is ``QUIET``, so the
  trie is a single path and the source degenerates to a schedule walk
  with a live session.

The loop matches the scalar engine's termination conventions exactly: a
trial retires at its first single-transmitter round (``rounds`` = that
1-based round), at schedule exhaustion (``solved=False``, ``rounds`` =
rounds actually played) or at the budget (``solved=False``, ``rounds =
max_rounds``).
"""

from __future__ import annotations

import itertools
import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..core.feedback import FB_COLLISION, FB_SILENCE, FB_SUCCESS, Observation
from ..core.protocol import (
    OBS_COLLISION,
    OBS_QUIET,
    OBS_SILENCE,
    BatchSchedule,
    ScheduleExhausted,
    UniformProtocol,
    UniformSession,
)
from .channel import Channel
from .simulator import DEFAULT_MAX_ROUNDS, _check_budget, _check_channel
from .trace import BatchExecutionResult

if TYPE_CHECKING:
    from .models import BatchFaultState, ChannelModel

__all__ = [
    "run_uniform_batch",
    "run_schedule_stacked",
    "run_history_stacked",
    "is_batchable",
]


def is_batchable(protocol: UniformProtocol) -> bool:
    """Whether :func:`run_uniform_batch` can execute ``protocol``.

    True when the protocol either publishes its schedule in advance or
    guarantees deterministic (history-driven) sessions - the uniform
    engines' capability predicate, which wrappers such as
    ``UniformAsPlayerProtocol`` consult.  Which engine runs a point is
    decided by :func:`repro.analysis.montecarlo.route` alone.
    """
    return (
        protocol.batch_schedule() is not None or protocol.deterministic_sessions
    )


def run_uniform_batch(
    protocol: UniformProtocol,
    ks: Sequence[int] | np.ndarray,
    rng: np.random.Generator,
    *,
    channel: Channel,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> BatchExecutionResult:
    """Execute one uniform-protocol trial per entry of ``ks``, in lockstep.

    The batch counterpart of :func:`repro.channel.simulator.run_uniform`:
    ``ks[i]`` is trial ``i``'s participant count, and entry ``i`` of the
    returned :class:`~repro.channel.trace.BatchExecutionResult` is
    distributed exactly as a scalar execution with that count (see the
    module docstring for why).  It is a one-point run of the stacked
    entry point for the protocol's kind, so a solo run and a fused one
    share one implementation.  Raises :class:`ValueError` for protocols
    that are not :func:`is_batchable` - callers wanting transparent
    fallback should test the capability first.
    """
    _check_channel(protocol.requires_collision_detection, channel)
    schedule = protocol.batch_schedule()
    if schedule is not None:
        return run_schedule_stacked(
            [schedule], [ks], [rng], channel=channel, max_rounds=max_rounds
        )[0]
    return run_history_stacked(
        [protocol], [ks], [rng], channel=channel, max_rounds=max_rounds
    )[0]


#: Rounds of success-band thresholds precomputed per table build.  Bands
#: are pure functions of (k, round probability), so the chunk size only
#: trades table-build frequency against memory - it never affects results.
_BAND_CHUNK_ROUNDS = 512

#: Rounds of uniforms pre-drawn per point at each absolute block
#: boundary (rounds 1, 1+B, 1+2B, ...).  Part of the engine's stream
#: contract: a trial that retires mid-block leaves its remaining
#: pre-drawn uniforms unused (discarding i.i.d. draws is
#: distribution-neutral), and a point stops drawing entirely once all
#: its trials have retired.  Because boundaries are absolute and the
#: draw shape depends only on the point's own live count and horizon,
#: stacked and solo runs consume identical per-point streams.
_DRAW_BLOCK_ROUNDS = 16

# A draw block never straddles a band window, so a block settled in one
# step reads its edges from one window.
assert _BAND_CHUNK_ROUNDS % _DRAW_BLOCK_ROUNDS == 0


def _index_trial_combos(
    ks_arrays: Sequence[np.ndarray],
) -> tuple[list[np.ndarray], np.ndarray]:
    """Index the distinct ``(point, k)`` pairs of a stacked run.

    Band edges depend only on the pair, so the probability sources
    compute them per distinct pair ("combo") and gather: returns each
    point's unique ``k`` values (as floats, band-arithmetic-ready) plus
    one flat per-trial index into their concatenation.
    """
    unique_ks: list[np.ndarray] = []
    flat_cidx = np.empty(sum(ks.size for ks in ks_arrays), dtype=np.int64)
    offset = 0
    cursor = 0
    for ks in ks_arrays:
        uniques, inverse = np.unique(ks, return_inverse=True)
        unique_ks.append(uniques.astype(float))
        flat_cidx[cursor : cursor + ks.size] = inverse + offset
        offset += uniques.size
        cursor += ks.size
    return unique_ks, flat_cidx


def _refill_draw_block(
    rngs: Sequence[np.random.Generator],
    counts: np.ndarray,
    horizons: np.ndarray,
    round_index: int,
    live: int,
    with_fault: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Pre-draw one :data:`_DRAW_BLOCK_ROUNDS` block of uniforms.

    The stacked loop's half of the stream contract: one row
    per live trial (in point order, each point's rows in trial order),
    clipped per point to its own remaining horizon, drawn from the
    point's own generator - so the shapes, and hence the streams, depend
    only on the point's own trajectory and a solo run consumes the
    identical sequence.

    With ``with_fault`` (randomized channel models), each point draws a
    second, same-shaped block of fault uniforms immediately after its
    faithful block - still from its own generator, so the per-point
    stream stays solo-identical and the fused executor's bit-identity
    contract survives fault injection.  Columns past a clipped point's
    horizon hold NaN, which lands in no band.
    """
    width = min(_DRAW_BLOCK_ROUNDS, int(horizons.max()) - round_index + 1)
    draw_buffer = np.empty((live, width))
    fault_buffer = np.empty((live, width)) if with_fault else None
    buffers = [draw_buffer, fault_buffer] if with_fault else [draw_buffer]
    start = 0
    for point in np.flatnonzero(counts):
        stop = start + counts[point]
        effective = min(
            _DRAW_BLOCK_ROUNDS, int(horizons[point]) - round_index + 1
        )
        for buffer in buffers:
            if effective == width:
                # Full-width rows are one C-order slab: fill it in place,
                # the same fill as random((rows, width)).
                rngs[point].random(out=buffer[start:stop])
            else:
                buffer[start:stop, :effective] = rngs[point].random(
                    (stop - start, effective)
                )
                # Past the point's horizon no round is played: NaN never
                # lands in a band, so a whole-block compare cannot hit.
                buffer[start:stop, effective:] = np.nan
        start = stop
    return draw_buffer, fault_buffer


def _per_point_results(
    solved: np.ndarray,
    rounds: np.ndarray,
    ks_arrays: Sequence[np.ndarray],
    max_rounds: int,
) -> list[BatchExecutionResult]:
    """Carve a stacked run's flat arrays back into per-point results."""
    results = []
    cursor = 0
    for ks in ks_arrays:
        stop = cursor + ks.size
        results.append(
            BatchExecutionResult(
                solved=solved[cursor:stop],
                rounds=rounds[cursor:stop],
                max_rounds=max_rounds,
                ks=ks,
            )
        )
        cursor = stop
    return results


def _schedule_probabilities(
    schedule: BatchSchedule, start_round: int, length: int
) -> np.ndarray:
    """Round probabilities for ``length`` rounds from ``start_round``.

    Rounds past a one-shot schedule's end clamp to the last scheduled
    round; the engine retires those trials before ever reading such an
    entry.
    """
    probabilities = np.asarray(schedule.probabilities, dtype=float)
    indices = start_round - 1 + np.arange(length)
    if schedule.cycle:
        indices %= probabilities.size
    else:
        indices = np.minimum(indices, probabilities.size - 1)
    return probabilities[indices]


def _success_bands(
    schedule: BatchSchedule,
    unique_ks: np.ndarray,
    start_round: int,
    length: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Success-band edges for ``length`` rounds from ``start_round``.

    Returns ``(lo, hi)`` of shape ``(length, unique_ks.size)``: round
    ``start_round + i`` of a ``k = unique_ks[c]`` trial succeeds iff its
    uniform draw lands in ``[lo[i, c], hi[i, c])``, where
    ``lo = (1-p)^k`` (the silence mass) and ``hi - lo = kp(1-p)^(k-1)``
    (the exactly-one-transmitter mass).
    """
    p = _schedule_probabilities(schedule, start_round, length)[:, None]
    return _band_edges(p, unique_ks[None, :])


def _band_edges(p: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trichotomy band edges of transmit probability ``p`` and count ``k``.

    The one band kernel of the vectorized engines (schedule, history and
    open): a round's uniform draw below ``lo = (1-p)^k`` is silence, in
    ``[lo, hi)`` with ``hi - lo = kp(1-p)^(k-1)`` a success, and above a
    collision.  ``p`` and ``k`` broadcast.  ``k = 0`` (an idle channel,
    or everyone crashed) yields ``lo = hi = 1``: certain silence - the
    exponent clamp keeps ``p = 1`` from producing ``0 * 0**-1`` NaNs
    there, and changes no edge of ``k >= 1``.
    """
    miss = 1.0 - p
    lo = miss**k
    hi = lo + k * p * miss ** np.maximum(k - 1.0, 0.0)
    return lo, hi


def _checked_stack(
    kind: str,
    points: int,
    ks_list: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    max_rounds: int,
) -> list[np.ndarray]:
    """The validated per-point ``ks`` arrays of a stacked run."""
    if not (points == len(ks_list) == len(rngs)):
        raise ValueError(
            f"stacked run needs one {kind}, ks array and rng per point; "
            f"got {points}/{len(ks_list)}/{len(rngs)}"
        )
    if points == 0:
        raise ValueError("stacked run needs at least one point")
    _check_budget(max_rounds)
    ks_arrays = []
    for ks in map(np.asarray, ks_list):
        if ks.ndim != 1 or ks.size == 0:
            raise ValueError("ks must be a non-empty 1-d array of trial sizes")
        # An int64 cast would truncate a float count and read a bool as
        # 1, so only integer dtypes pass.
        if ks.dtype.kind not in "iu":
            raise ValueError(
                f"participant counts must be integers, got {ks.dtype}"
            )
        if (ks < 1).any():
            raise ValueError("participant counts must all be >= 1")
        ks_arrays.append(ks.astype(np.int64, copy=False))
    return ks_arrays


class _LiveRows:
    """The live ``(point, trial)`` rows of a stacked run, one array each.

    Rows are grouped by point in point order, each point's rows in trial
    order - exactly the order a solo run draws them in.  Every attribute
    is a per-row array: the loop's ``trial`` (the row's flat trial
    index), ``cidx`` (its ``(point, k)`` combo) and ``buffer`` (its row
    of the pre-drawn block); a source may add its own.  :meth:`keep`
    retires rows from all of them at once.
    """

    def __init__(self, **columns: np.ndarray) -> None:
        self.__dict__.update(columns)

    def keep(
        self, mask: np.ndarray, fault_state: BatchFaultState | None
    ) -> None:
        """Keep only the rows in ``mask``, in every array and fault state."""
        columns = vars(self)
        for name, column in columns.items():
            columns[name] = column[mask]
        if fault_state is not None:
            fault_state.filter(mask)


def _run_stacked(
    source: _ScheduleSource | _HistorySource,
    ks_arrays: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    model: ChannelModel | None,
    max_rounds: int,
) -> list[BatchExecutionResult]:
    """The one closed round loop behind both stacked entry points.

    It owns every step a round takes whatever the protocol: the block
    pre-draw, the band compare, the channel model's perturbation, and
    the retirement and censoring of trials.  ``source`` supplies the
    rest: its ``horizons`` bound each point's rounds, and ``start``
    binds it to the live rows and the point of each flat trial index.
    Each round, ``expired`` names the trials whose protocol gives up
    before the draw (or returns None), ``bands`` returns each live
    trial's band edges (``k_eff``: the live counts of a
    population-shrinking model, else None) and ``advance`` moves the
    survivors' protocol state on.

    A faithful schedule run (no active model) takes the block step
    instead: at each block boundary it compares the whole pre-drawn
    block with the source's ``block_bands``, retires every trial at its
    first hit or at a horizon inside the block, and jumps to the next
    boundary.  It reads the same uniforms and leaves the same live rows
    at every boundary as the per-round body, so the streams and the
    results are those of stepping round by round.
    """
    points = len(ks_arrays)
    trials = np.asarray([ks.size for ks in ks_arrays])
    total = int(trials.sum())
    solved = np.zeros(total, dtype=bool)
    rounds = np.zeros(total, dtype=np.int64)
    fault_state = model.batch_state(total) if model is not None else None
    with_fault = model is not None and model.needs_fault_draws
    shrinking = model is not None and model.shrinks_population

    # Band edges depend only on (point, k) - plus the round, or the
    # history - so the sources compute them per distinct pair ("combo")
    # and gather.  Population-shrinking models void that invariant:
    # their bands come per trial from the live active counts.
    unique_ks, flat_cidx = _index_trial_combos(ks_arrays)
    live = _LiveRows(
        trial=np.arange(total),
        cidx=flat_cidx,
        buffer=np.arange(total),  # rewritten at the first block boundary
    )
    # Per flat trial index: its point and its k.  Rows look these up
    # where a round needs them rather than carrying them through every
    # retirement.
    trial_point = np.repeat(np.arange(points), trials)
    trial_ks = np.concatenate(ks_arrays) if shrinking else None
    source.start(live, unique_ks, trial_point)
    horizons = source.horizons
    # A faithful schedule point ignores feedback, so a trial's outcome in
    # a round depends only on its own uniform and that round's bands: the
    # loop settles its whole draw block at the boundary.  Any other run
    # depends on the previous round's feedback or fault state and steps
    # one round at a time.
    settle = model is None and isinstance(source, _ScheduleSource)
    draw_buffer = np.empty((0, 0))
    fault_buffer: np.ndarray | None = None

    last_round = int(horizons.max())
    round_index = 1
    while round_index <= last_round:
        # Clean give-ups (a one-shot horizon or an exhausted history)
        # retire *before* the round's draw, with rounds actually played -
        # the scalar ScheduleExhausted path.
        expired = source.expired(round_index, live)
        if expired is not None:
            rounds[live.trial[expired]] = round_index - 1
            live.keep(~expired, fault_state)
        if live.trial.size == 0:
            break

        # Uniform draws come in *absolute* blocks of _DRAW_BLOCK_ROUNDS
        # rounds: at each block boundary every live point pre-draws one
        # row of uniforms per live trial (clipped to its own horizon)
        # from its own generator.  Block boundaries and per-point shapes
        # depend only on the point's own trajectory, so a solo run
        # consumes the identical stream; between boundaries a round costs
        # one gather instead of one generator call per point.
        column = (round_index - 1) % _DRAW_BLOCK_ROUNDS
        if column == 0:
            # The per-point live counts are only needed here, to shape
            # the refill; between boundaries retirement just filters.
            counts = np.bincount(trial_point[live.trial], minlength=points)
            draw_buffer, fault_buffer = _refill_draw_block(
                rngs, counts, horizons, round_index, live.trial.size,
                with_fault,
            )
            live.buffer = np.arange(live.trial.size)
            if settle:
                # The block step: compare the whole (rows x width) block
                # with its bands, one edge block alive at a time.  Each
                # row retires at its first hit; flatnonzero walks the
                # block row by row, columns ascending within a row.
                width = draw_buffer.shape[1]
                lo, hi = source.block_bands(round_index, width)
                hit = draw_buffer >= lo[live.cidx]
                hit &= draw_buffer < hi[live.cidx]
                cells = np.flatnonzero(hit)
                hit_rows = cells // width
                first = np.ones(cells.size, dtype=bool)
                np.not_equal(hit_rows[1:], hit_rows[:-1], out=first[1:])
                won_rows = hit_rows[first]
                winners = live.trial[won_rows]
                solved[winners] = True
                rounds[winners] = round_index + cells[first] % width
                done = np.zeros(live.trial.size, dtype=bool)
                done[won_rows] = True
                # A horizon ending inside the block retires the rows that
                # did not hit by then, at rounds played = horizon.  One
                # ending on the block's last round is the next boundary's
                # give-up, as in the per-round body.
                end = round_index + width - 1
                if ((horizons >= round_index) & (horizons < end)).any():
                    row_horizon = horizons[trial_point[live.trial]]
                    ended = ~done & (row_horizon < end)
                    rounds[live.trial[ended]] = row_horizon[ended]
                    done |= ended
                if done.any():
                    live.keep(~done, None)
                round_index += width
                continue

        # Shrinking models' live counts are asked once per round, before
        # the outcome - the scalar loop's active_count/binomial ordering.
        k_eff = (
            fault_state.active_counts(trial_ks[live.trial], round_index)
            .astype(float)
            if shrinking
            else None
        )
        lo, hi = source.bands(round_index, live, k_eff)
        draws = draw_buffer[live.buffer, column]

        if fault_state is None:
            feedback = None
            hit = (draws >= lo) & (draws < hi)
        else:
            # The same band compares, widened to the full trichotomy so
            # the model can perturb the delivered feedback *after* the
            # faithful outcome; retirement and the observed history both
            # follow the *delivered* feedback.
            feedback = np.where(
                draws < lo,
                FB_SILENCE,
                np.where(draws < hi, FB_SUCCESS, FB_COLLISION),
            )
            fault_draws = (
                fault_buffer[live.buffer, column]
                if fault_buffer is not None
                else None
            )
            feedback = fault_state.perturb(round_index, feedback, fault_draws)
            hit = feedback == FB_SUCCESS
        survive = None
        if hit.any():
            winners = live.trial[hit]
            solved[winners] = True
            rounds[winners] = round_index
            survive = ~hit
            live.keep(survive, fault_state)
        source.advance(round_index, live, draws, hi, feedback, survive)
        round_index += 1

    # Whatever survives was right-censored: by the budget (rounds played =
    # max_rounds) or by one-shot exhaustion (rounds played = schedule
    # length), matching the scalar engine's ExecutionResult convention.
    rounds[live.trial] = horizons[trial_point[live.trial]]
    return _per_point_results(solved, rounds, ks_arrays, max_rounds)


class _ScheduleSource:
    """Probability source of schedule points: tables over a round window.

    Band edges - or, under a population-shrinking model, just the round
    probabilities - are precomputed per distinct ``(point, k)`` for
    :data:`_BAND_CHUNK_ROUNDS` rounds at a time, so a round's thresholds
    are two row gathers.  A one-shot point gives up at its horizon;
    schedules ignore feedback, so survivors have no state to move on.
    """

    def __init__(self, schedules: Sequence[BatchSchedule], max_rounds: int):
        self._schedules = schedules
        self.horizons = np.asarray([s.horizon(max_rounds) for s in schedules])
        self._horizon_steps = set(int(h) for h in self.horizons)
        self._unique_ks: list[np.ndarray] = []
        self._trial_point = self._trial_horizon = np.empty(0, np.int64)
        self._base = self._length = 0  # the window is (base, base + length]
        self._lo = self._hi = self._p = np.empty((0, 0))

    def start(
        self,
        live: _LiveRows,
        unique_ks: list[np.ndarray],
        trial_point: np.ndarray,
    ) -> None:
        self._unique_ks = unique_ks
        self._trial_point = trial_point
        self._trial_horizon = self.horizons[trial_point]

    def expired(self, round_index: int, live: _LiveRows) -> np.ndarray | None:
        # Whole points retire when their (one-shot) horizon just ended:
        # their surviving trials censor at rounds played = horizon.
        if round_index - 1 in self._horizon_steps:
            expired = self._trial_horizon[live.trial] < round_index
            if expired.any():
                return expired
        return None

    def _window_row(self, round_index: int, shrinking: bool) -> int:
        """The window row of ``round_index``, refilling past the window."""
        if round_index > self._base + self._length:
            self._base = round_index - 1
            self._length = min(
                _BAND_CHUNK_ROUNDS, int(self.horizons.max()) - self._base
            )
            if not shrinking:
                blocks = [
                    _success_bands(schedule, uniques, round_index, self._length)
                    for schedule, uniques in zip(
                        self._schedules, self._unique_ks
                    )
                ]
                self._lo = np.concatenate([lo for lo, _ in blocks], axis=1)
                self._hi = np.concatenate([hi for _, hi in blocks], axis=1)
            else:
                # Only the per-round probabilities can be precomputed;
                # band edges depend on the live per-trial counts.
                self._p = np.stack(
                    [
                        _schedule_probabilities(s, round_index, self._length)
                        for s in self._schedules
                    ],
                    axis=1,
                )
        return round_index - self._base - 1

    def bands(
        self, round_index: int, live: _LiveRows, k_eff: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        row = self._window_row(round_index, k_eff is not None)
        if k_eff is None:
            return self._lo[row][live.cidx], self._hi[row][live.cidx]
        return _band_edges(self._p[row, self._trial_point[live.trial]], k_eff)

    def block_bands(
        self, round_index: int, width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Band edges of the ``width`` rounds from ``round_index``, per combo.

        Returns ``(lo, hi)`` of shape ``(combos, width)``: gathered at the
        live rows' ``cidx`` they line up with the rows' draw block.  A
        block never straddles a window, so one window serves it.
        """
        row = self._window_row(round_index, False)
        rows = slice(row, row + width)
        return (
            np.ascontiguousarray(self._lo[rows].T),
            np.ascontiguousarray(self._hi[rows].T),
        )

    def advance(self, round_index, live, draws, hi, feedback, survive) -> None:
        """Schedules never branch on feedback: nothing moves on."""


def run_schedule_stacked(
    schedules: Sequence[BatchSchedule],
    ks_list: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    *,
    channel: Channel | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> list[BatchExecutionResult]:
    """Advance many independent schedule-protocol points in one loop.

    Point ``j`` is a whole Monte Carlo batch (schedule, per-trial
    participant counts, own generator); entry ``j`` of the returned list
    is **bit-identical** to ``run_uniform_batch`` on that point alone:
    point ``j`` draws from ``rngs[j]`` in :data:`_DRAW_BLOCK_ROUNDS`-round
    blocks whose boundaries are absolute and whose shapes depend only on
    the point's own live count and horizon, so a solo run consumes the
    identical stream, and a point stops consuming randomness at the
    first block boundary after its last trial retires.  Stacking changes
    only *where* the per-round bookkeeping happens - once over the flat
    ``(point, trial)`` rows instead of per point - which is the fused
    sweep executor's wall-clock lever on dense grids.

    ``channel`` is optional because schedule protocols never branch on
    feedback; it matters only when it carries an active
    :class:`~repro.channel.models.ChannelModel`, in which case the full
    silence/success/collision code of each live round is computed from
    the same band compares, perturbed *after* the faithful outcome
    (randomized models consume one extra pre-drawn uniform per live
    round; see :func:`_refill_draw_block`), and a trial retires on the
    *delivered* success.
    """
    ks_arrays = _checked_stack(
        "schedule", len(schedules), ks_list, rngs, max_rounds
    )
    model = channel.active_model if channel is not None else None
    return _run_stacked(
        _ScheduleSource(schedules, max_rounds), ks_arrays, rngs, model,
        max_rounds,
    )


#: Observation-code -> enum for trie child expansion.  Indices match the
#: :data:`~repro.core.protocol.OBS_QUIET` / ``OBS_SILENCE`` /
#: ``OBS_COLLISION`` codes the player batch engine already uses.
_OBSERVATION_OF = {
    OBS_QUIET: Observation.QUIET,
    OBS_SILENCE: Observation.SILENCE,
    OBS_COLLISION: Observation.COLLISION,
}


class _HistoryArena:
    """Node store of every distinct observation history of a stacked run.

    A forest of history tries over one flat node space: each root is the
    empty history of one protocol behaviour (keyed by
    :meth:`~repro.core.protocol.UniformProtocol.history_signature`, so
    same-spec points share a root and hence every descendant), and node
    ``child[v][code]`` is the history ``v`` extended by the observation
    ``code``.  Per node the arena memoizes the protocol's response - the
    next-round probability, or schedule exhaustion - computed from a
    representative session, forked once, when the node is created.  All
    per-node attributes live in flat NumPy arrays so the round loop can
    gather them for thousands of trials at once; capacity doubles as
    nodes are added.
    """

    def __init__(self) -> None:
        capacity = 64
        self.probability = np.full(capacity, np.nan)
        self.exhausted = np.zeros(capacity, dtype=bool)
        self.child = np.full((capacity, 3), -1, dtype=np.int64)
        self._sessions: list[UniformSession | None] = [None] * capacity
        self._roots: dict[object, int] = {}
        self.count = 0
        #: Whether any history has exhausted its schedule; the round
        #: loop skips the per-trial give-up scan while this is False
        #: (cycling protocols never set it).
        self.any_exhausted = False

    def _new_node(self, session: UniformSession) -> int:
        """A node for ``session``'s history, with its response memoized.

        One ``next_probability()`` call per distinct history, ever: a
        node reached by later trials, points or (trie-sharing) runs is
        a pure array lookup.  :class:`ScheduleExhausted` is memoized
        too - a one-shot give-up is a property of the history, not of
        the trial that first reached it.
        """
        if self.count == self.probability.size:
            grow = self.count
            self.probability = np.concatenate(
                [self.probability, np.full(grow, np.nan)]
            )
            self.exhausted = np.concatenate(
                [self.exhausted, np.zeros(grow, dtype=bool)]
            )
            self.child = np.concatenate(
                [self.child, np.full((grow, 3), -1, dtype=np.int64)]
            )
            self._sessions.extend([None] * grow)
        node = self.count
        self._sessions[node] = session
        try:
            self.probability[node] = session.next_probability()
        except ScheduleExhausted:
            self.exhausted[node] = True
            self.any_exhausted = True
        self.count += 1
        return node

    def root_for(self, protocol: UniformProtocol, private_key: object) -> int:
        """The empty-history node of ``protocol``, shared where provable.

        Protocols publishing equal ``history_signature()``s share one
        root (and so one memoized trie) - across the points of a stacked
        run *and* across runs, since the arena is shared per thread;
        unsigned protocols get a private root under ``private_key``
        (unique per run and point, so nothing is ever wrongly reused).
        """
        key = protocol.history_signature()
        if key is None:
            key = private_key
        node = self._roots.get(key)
        if node is None:
            node = self._new_node(protocol.session())
            self._roots[key] = node
        return node

    def descend(self, nodes: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Child node per ``(node, code)`` pair, expanding the trie lazily.

        Missing children cost one session fork + ``observe()`` per
        *distinct* pair, created in ascending ``(node, code)`` order;
        then every trial's descent is a single fancy-indexed gather -
        the array analogue of the old per-group split, without
        per-round ``fork()`` copies.  (A plain ``np.unique`` would
        import ``numpy.ma`` on NumPy 2, so the pairs dedup as ints.)
        """
        found = self.child[nodes, codes]
        missing = found < 0
        if missing.any():
            for key in sorted(set((nodes[missing] * 3 + codes[missing]).tolist())):
                node, code = divmod(key, 3)
                parent = self._sessions[node]
                assert parent is not None
                session = parent.fork()
                session.observe(_OBSERVATION_OF[code])
                self.child[node, code] = self._new_node(session)
            found = self.child[nodes, codes]
        return found


#: Node budget of the shared arena.  The memoized tries are a cache:
#: once the arena exceeds this many nodes a fresh one replaces it at the
#: next run's start (never mid-run - live node ids must stay valid),
#: bounding resident memory while keeping the steady-state case - many
#: runs of the same protocol specs - one warm lookup.  Results are
#: bit-identical warm or cold; only session construction work is saved.
_SHARED_ARENA_NODE_BUDGET = 100_000

#: The arena is shared across runs but *per thread* (``threading.local``):
#: arena mutation (node allocation, array growth) is not synchronized, and
#: the run-local engine this replaced was safe to call from threads - a
#: property worth keeping for embedders, at the cost of one warm trie per
#: thread.  Process pools are unaffected (each worker has its own module
#: state).
_run_state = threading.local()
_run_tokens = itertools.count()


def _arena_for_run() -> _HistoryArena:
    arena = getattr(_run_state, "arena", None)
    if arena is None or arena.count > _SHARED_ARENA_NODE_BUDGET:
        arena = _HistoryArena()
        _run_state.arena = arena
    return arena


def _reset_shared_arena() -> None:
    """Drop this thread's memoized arena (tests pin warm/cold identity)."""
    _run_state.arena = None


class _HistorySource:
    """Probability source of history-driven points: one trie node per trial.

    Each live trial carries a node id into the shared
    :class:`_HistoryArena` (its ``node`` row), whose probability and
    exhaustion were memoized when the node was created.  A round gives
    up the trials whose history exhausted its schedule, computes each
    live trial's band edges from its node's probability, and moves
    every survivor to the child of its observation.
    """

    def __init__(
        self,
        protocols: Sequence[UniformProtocol],
        channel: Channel,
        max_rounds: int,
    ) -> None:
        self.horizons = np.full(len(protocols), max_rounds)  # none known ahead
        self._last_round = max_rounds
        self._collision_detection = channel.collision_detection
        self._arena = _arena_for_run()
        run_token = next(_run_tokens)
        self._roots = np.asarray(
            [
                self._arena.root_for(protocol, ("unshared", run_token, j))
                for j, protocol in enumerate(protocols)
            ],
            dtype=np.int64,
        )
        self._combo_ks = np.empty(0)

    def start(
        self,
        live: _LiveRows,
        unique_ks: list[np.ndarray],
        trial_point: np.ndarray,
    ) -> None:
        self._combo_ks = np.concatenate(unique_ks)
        live.node = self._roots[trial_point]

    def expired(self, round_index: int, live: _LiveRows) -> np.ndarray | None:
        arena = self._arena
        if arena.any_exhausted:
            expired = arena.exhausted[live.node]
            if expired.any():
                return expired
        return None

    def bands(
        self, round_index: int, live: _LiveRows, k_eff: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        # Edges per live row.  Exhausted histories keep NaN probabilities,
        # but every trial on one just retired.
        k = self._combo_ks[live.cidx] if k_eff is None else k_eff
        return _band_edges(self._arena.probability[live.node], k)

    def advance(
        self,
        round_index: int,
        live: _LiveRows,
        draws: np.ndarray,
        hi: np.ndarray,
        feedback: np.ndarray | None,
        survive: np.ndarray | None,
    ) -> None:
        """Move each survivor to the child of its observed history.

        ``draws``, ``hi`` and ``feedback`` cover the round's rows before
        its winners retired; ``survive`` (None: nobody won) selects the
        survivors.
        """
        if live.trial.size == 0 or round_index == self._last_round:
            return
        if not self._collision_detection:
            codes = np.full(live.trial.size, OBS_QUIET, dtype=np.int64)
        else:
            collided = (
                draws >= hi if feedback is None else feedback == FB_COLLISION
            )
            if survive is not None:
                collided = collided[survive]
            codes = np.where(collided, OBS_COLLISION, OBS_SILENCE)
        live.node = self._arena.descend(live.node, codes)


def run_history_stacked(
    protocols: Sequence[UniformProtocol],
    ks_list: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    *,
    channel: Channel,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> list[BatchExecutionResult]:
    """Advance many history-driven points in one array-based loop.

    The CD counterpart of :func:`run_schedule_stacked`, on the same round
    loop with the history source: point ``j`` is a whole Monte Carlo
    batch of a deterministic-session uniform protocol (typically
    feedback-driven - Willard/phased search, history policies), and entry
    ``j`` of the result is **bit-identical** to ``run_uniform_batch`` on
    that point alone.  Each live trial carries a node id into the shared
    history-trie arena; a round is

    1. one memoized ``next_probability()`` per distinct history, made
       when the history is first reached (shared across trials, across
       points with equal ``history_signature()``s, and - the arena
       being shared per thread under a node budget - across whole
       runs; results are bit-identical warm or cold);
    2. retirement of trials whose history's schedule exhausted
       (``rounds`` = rounds actually played, the scalar convention);
    3. one uniform gather per live trial from per-point
       :data:`_DRAW_BLOCK_ROUNDS`-round pre-drawn blocks (absolute
       boundaries, shapes depending only on the point's own live count -
       the same stream contract as schedule points) compared against
       ``(1-p)^k`` / ``kp(1-p)^(k-1)`` trichotomy band edges computed
       per live trial from its node's memoized probability;
    4. a deduplicated trie descent moving every surviving trial to its
       observed child history.

    The trichotomy bands make the round distribution-exact (engines only
    ever observe silence / success / collision; module docstring), so
    the old per-group ``rng.binomial`` draws and per-split session
    ``fork()``s are gone entirely.
    """
    ks_arrays = _checked_stack(
        "protocol", len(protocols), ks_list, rngs, max_rounds
    )
    for protocol in protocols:
        if not protocol.deterministic_sessions:
            raise ValueError(
                f"protocol {protocol.name!r} has randomized sessions; use "
                "the scalar engine (run_uniform) instead"
            )
        _check_channel(protocol.requires_collision_detection, channel)
    return _run_stacked(
        _HistorySource(protocols, channel, max_rounds), ks_arrays, rngs,
        channel.active_model, max_rounds,
    )
