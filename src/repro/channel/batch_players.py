"""Vectorized batch execution of identity/advice-aware player protocols.

The scalar engine (:func:`repro.channel.simulator.run_players`) keeps a
Python dict of per-player sessions and pays one ``decide()`` call per
player per round per trial - the dominant cost of every Section 3
Monte Carlo estimate.  This module advances **all trials of a batch in
lockstep** instead: protocols that implement the
:meth:`~repro.core.protocol.PlayerProtocol.batch_sessions` capability
hook hold the state of every ``(trial, player)`` pair in NumPy arrays of
shape ``(trials, players)``, so a round costs one vectorized decide (a
``rng.random(shape) < 1/window`` draw for backoff, integer compares
against scan/descent positions for the deterministic advice protocols),
one transmitter count per live trial (a float32 matrix-vector product,
exact below ``2**24`` transmitters per trial) to resolve the channel,
and one vectorized observe that updates state only for unsolved rows.
Sessions that read no feedback and draw nothing (the candidate scan)
go further on a faithful channel: one engine step settles a block of
:data:`_BLOCK_ROUNDS` rounds from their per-round transmitter counts.

Faithfulness
------------
Unlike the uniform batch engines, nothing here changes the probability
model: the batch sessions run the *same* per-player state machine as the
scalar sessions, just stacked along a trial axis.  Deterministic
protocols (candidate scan, tree descent) therefore match the scalar
engine **exactly**, trial by trial; randomized protocols (backoff, the
per-player view of the randomized advice protocols) draw the same
per-player Bernoulli decisions from the same distribution, with the RNG
stream consumed in batch order - the same statistical-equivalence
contract as ``run_uniform_batch``.

Participant sets may differ in size across trials; ids are packed into a
right-padded ``(trials, players)`` array (:func:`pack_participants`) and
padded slots never transmit.  Termination conventions mirror the scalar
engine: a trial retires at its first single-transmitter round (``rounds``
= that 1-based round), at schedule exhaustion (``solved=False``,
``rounds`` = rounds actually played) or at the budget (``solved=False``,
``rounds = max_rounds``).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

from ..core.advice import AdviceError, AdviceFunction, NullAdvice
from ..core.feedback import FB_COLLISION, FB_SILENCE, FB_SUCCESS
from ..core.protocol import (
    OBS_COLLISION,
    OBS_QUIET,
    OBS_SILENCE,
    PlayerProtocol,
    ProtocolError,
)
from .channel import Channel
from .simulator import DEFAULT_MAX_ROUNDS, _check_budget, _check_channel
from .trace import BatchExecutionResult

__all__ = [
    "run_players_batch",
    "run_players_stacked",
    "pack_participants",
    "checked_advice_source",
]


def checked_advice_source(
    protocol: PlayerProtocol, advice_function: AdviceFunction | None
) -> AdviceFunction:
    """The advice function to evaluate, with the budget contract enforced.

    ``None`` means :class:`~repro.core.advice.NullAdvice`; a mismatch
    between the protocol's declared ``advice_bits`` and the function's
    budget is an error - the pair is co-designed (Section 3.1).  Shared
    by the batch engine and the fused estimators so the contract (and
    its message) lives in one place.
    """
    advice_source = advice_function if advice_function is not None else NullAdvice()
    if advice_source.bits != protocol.advice_bits:
        raise ProtocolError(
            f"protocol expects {protocol.advice_bits} advice bits but the "
            f"advice function provides {advice_source.bits}"
        )
    return advice_source


def pack_participants(
    participant_sets: Sequence[frozenset[int]],
) -> np.ndarray:
    """Participant sets as one right-padded ``(trials, players)`` id array.

    Ids are sorted ascending within each trial (the scalar engine's fixed
    player order); trials smaller than the widest set are padded with
    ``-1``, which batch sessions treat as "no player in this slot".
    """
    if not participant_sets:
        raise ValueError("participant batch must be non-empty")
    sizes = np.fromiter(map(len, participant_sets), np.int64, len(participant_sets))
    if not sizes.all():
        raise ValueError("participant set must be non-empty")
    flat = np.fromiter(itertools.chain.from_iterable(participant_sets), np.int64)
    # Scatter each set into its row over int64's largest value, which
    # sorts after every id (or ties with it), sort the rows, and pad.
    rows = np.repeat(np.arange(sizes.size), sizes)
    ids = np.full((sizes.size, sizes.max()), np.iinfo(np.int64).max, dtype=np.int64)
    ids[rows, np.arange(flat.size) - (np.cumsum(sizes) - sizes)[rows]] = flat
    ids.sort(axis=1)
    ids[np.arange(ids.shape[1]) >= sizes[:, None]] = -1
    return ids


def run_players_batch(
    protocol: PlayerProtocol,
    participant_sets: Sequence[frozenset[int]],
    n: int,
    rng: np.random.Generator,
    *,
    channel: Channel,
    advice_function: AdviceFunction | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> BatchExecutionResult:
    """Execute one player-protocol trial per participant set, in lockstep.

    The batch counterpart of :func:`repro.channel.simulator.run_players`:
    entry ``i`` of the returned
    :class:`~repro.channel.trace.BatchExecutionResult` is an execution on
    ``participant_sets[i]``, with the advice function evaluated once per
    trial on its participant set (Section 3.1), as the scalar engine
    does: the ids are checked, then one
    :meth:`~repro.core.advice.AdviceFunction.advise_many` call advises
    every set.  Raises :class:`ValueError` for protocols without
    :meth:`~repro.core.protocol.PlayerProtocol.batch_sessions` - callers
    wanting transparent fallback route through
    :func:`repro.analysis.montecarlo.route` first.
    """
    _check_budget(max_rounds)
    _check_channel(protocol.requires_collision_detection, channel)
    ids = pack_participants(participant_sets)
    _check_ids(ids, n)
    advice_source = checked_advice_source(protocol, advice_function)
    advice = advice_source.advise_many(participant_sets, n)
    return _drive_batch_sessions(
        protocol, ids, n, advice, rng, channel=channel, max_rounds=max_rounds
    )


def run_players_stacked(
    protocol: PlayerProtocol,
    participant_sets: Sequence[frozenset[int]],
    n: int,
    advice: Sequence[str] | np.ndarray,
    *,
    channel: Channel,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
) -> BatchExecutionResult:
    """Execute trials of *many scenario points* as one stacked batch.

    The fused sweep executor's player substrate: the caller has already
    drawn each point's participant sets and advice from that
    point's own generator (in exactly the per-point order), concatenated
    them, and hands the engine pure data.  Because the protocol's batch
    sessions consume no randomness
    (:meth:`~repro.core.protocol.PlayerProtocol.supports_fused_sessions`),
    driving the concatenation through one lockstep loop produces, for
    every point's slice of trials, **bit-identical** results to running
    that point's batch alone - rows retire independently and the session
    state of one trial never reads another's.

    ``advice`` holds one pre-computed advice value per trial (aligned
    with ``participant_sets``): an int64 array, as
    :meth:`~repro.core.advice.AdviceFunction.advise_many` returns it, or
    ``b``-bit strings, decoded here.  Raises :class:`ValueError` for
    protocols without randomness-free batch sessions, and
    :class:`~repro.core.advice.AdviceError` with the messages of
    :meth:`~repro.core.advice.AdviceFunction.checked_advise` for an id
    outside ``0..n-1`` or an advice string that is not
    ``protocol.advice_bits`` binary digits, for an int outside
    ``[0, 2**advice_bits)``, and for advice of any other type (a float
    or bool array, a list of ints), naming that type.
    """
    _check_budget(max_rounds)
    _check_channel(protocol.requires_collision_detection, channel)
    if not (
        protocol.supports_batch_sessions() and protocol.supports_fused_sessions()
    ):
        raise ValueError(
            f"protocol {protocol.name!r} has no randomness-free batch "
            "sessions; stack its points with the serial executor instead"
        )
    if len(advice) != len(participant_sets):
        raise ValueError(
            f"need one advice string per trial; got {len(advice)} for "
            f"{len(participant_sets)} trials"
        )
    ids = pack_participants(participant_sets)
    _check_ids(ids, n)
    return _drive_batch_sessions(
        protocol, ids, n, _advice_array(advice, protocol.advice_bits), None,
        channel=channel, max_rounds=max_rounds,
    )


def _check_ids(ids: np.ndarray, n: int) -> None:
    """``checked_advise``'s id check, with its message, on packed ids.

    Packed rows are sorted and padded on the right with ``-1``, so a
    row's first slot is its smallest id; unchecked, a ``-1`` id would
    read as padding and an id ``>= n`` would never transmit.
    """
    out_of_range = (ids[:, 0] < 0) | (ids.max(axis=1) >= n)
    if out_of_range.any():
        row = ids[int(np.argmax(out_of_range))]
        player = row[0] if row[0] < 0 else row.max()
        raise AdviceError(f"player id {player} outside 0..{n - 1}")


def _advice_array(advice: Sequence[str] | np.ndarray, bits: int) -> np.ndarray:
    """Caller advice as int64, checked against the ``bits`` budget.

    Strings get ``checked_advise``'s checks and messages; ints must lie
    in ``[0, 2**bits)``, the values a ``bits``-bit string reads.
    Anything else is refused by the type of its first non-string value.
    """
    if isinstance(advice, np.ndarray) and advice.dtype.kind in "iu":
        outside = advice[(advice < 0) | (advice >= 2**bits)]
        if outside.size:
            raise AdviceError(
                f"advice {outside[0]} outside 0..{2**bits - 1} for a {bits}-bit budget"
            )
        return advice.astype(np.int64)
    for bits_string in advice:
        if not isinstance(bits_string, str):
            kind = type(bits_string).__name__
            raise AdviceError(f"advice must be an int array or strings, got {kind}")
        if len(bits_string) != bits:
            raise AdviceError(
                f"advice {bits_string!r} has {len(bits_string)} bits, "
                f"budget is {bits}"
            )
        if bits_string.strip("01"):
            raise AdviceError(f"malformed advice {bits_string!r}")
    return np.array([int(string or "0", 2) for string in advice], dtype=np.int64)


#: Rounds a faithful run settles per engine step when its sessions count
#: a block at once.  It changes no result: a block leaves every trial
#: where stepping its rounds one by one would.
_BLOCK_ROUNDS = 16


def _drive_batch_sessions(
    protocol: PlayerProtocol,
    ids: np.ndarray,
    n: int,
    advice: np.ndarray,
    rng: np.random.Generator | None,
    *,
    channel: Channel,
    max_rounds: int,
) -> BatchExecutionResult:
    """The shared lockstep loop behind the batch and stacked entry points.

    In the per-round body, transmitters are counted per trial by one
    kernel at every width, the float32 product of ``decisions`` with a
    vector of ones.  The count is
    exact below ``2**24`` transmitters per trial, and the silence /
    success / collision verdict it feeds is exact at any width: a float
    sum of non-negative integer terms reads 0 or 1 only when the exact
    sum does.  Survivors are filtered only on rounds in which a trial
    retires (wins or exhausts); on every other round the live set,
    decisions, counts and feedback pass through as they are and the
    fault state keeps its rows.

    A faithful run (no active channel model) first asks the sessions
    for a block's transmitter counts
    (:meth:`~repro.core.protocol.PlayerBatchSessions.block_counts`).
    Sessions that answer settle a block per step: a trial retires at
    its first single-transmitter column, a trial whose schedule is spent
    inside the block gives up with the rounds actually played, and the
    rest carry over to the next block.  Sessions that answer ``None``
    take the per-round body for the whole run, as does every run under
    a channel model.
    """
    trials = ids.shape[0]
    model = channel.active_model
    if model is not None and model.shrinks_population:
        raise ValueError(
            f"channel model {model.name!r} cannot run on the batch player "
            "engine (a non-zero crash rejoin delay changes the live "
            "participant set mid-trial); use the scalar engine "
            "(run_players) instead"
        )
    if model is not None and model.needs_fault_draws and rng is None:
        raise ValueError(
            f"channel model {model.name!r} draws per-round fault randomness; "
            "the stacked (fused) player engine runs without a generator - "
            "run these points through the serial executor instead"
        )
    sessions = protocol.batch_sessions(ids, n, advice, rng=rng)
    if sessions is None:
        raise ValueError(
            f"protocol {protocol.name!r} has no batch player sessions; use "
            "the scalar engine (run_players) instead"
        )
    fault_state = model.batch_state(trials) if model is not None else None

    solved = np.zeros(trials, dtype=bool)
    rounds = np.zeros(trials, dtype=np.int64)
    live = np.arange(trials)
    ones = np.ones(ids.shape[1], dtype=np.float32)
    settle = model is None
    round_index = 1
    while round_index <= max_rounds:
        if settle:
            width = min(_BLOCK_ROUNDS, max_rounds - round_index + 1)
            block = sessions.block_counts(live, width)
            if block is None:
                settle = False  # no block hook: step round by round
            else:
                counts, playable = block
                hit = counts == 1
                won = hit.any(axis=1)
                winners = live[won]
                solved[winners] = True
                rounds[winners] = round_index + hit[won].argmax(axis=1)
                live = live[~won]
                if playable < width:
                    # The schedule is spent inside the block: the rest
                    # give up with rounds actually played, as below.
                    rounds[live] = round_index + playable - 1
                    live = live[:0]
                if live.size == 0:
                    break
                round_index += width
                continue
        decisions, exhausted = sessions.decide(live)
        if exhausted.any():
            # Clean one-shot give-up: rounds actually played, like the
            # scalar engine's ScheduleExhausted handling.
            rounds[live[exhausted]] = round_index - 1
            keep = ~exhausted
            live = live[keep]
            decisions = np.compress(keep, decisions, axis=0)
            if fault_state is not None:
                fault_state.filter(keep)
            if live.size == 0:
                break
        counts = decisions.astype(np.float32) @ ones
        if fault_state is None:
            feedback = None
            hit = counts == 1
        else:
            # Ground-truth feedback from the transmit counts, perturbed by
            # the model *after* the faithful outcome; retirement and the
            # survivors' observations follow the *delivered* feedback.
            feedback = np.where(
                counts == 0,
                FB_SILENCE,
                np.where(counts == 1, FB_SUCCESS, FB_COLLISION),
            )
            fault_draws = (
                rng.random(live.size) if model.needs_fault_draws else None
            )
            feedback = fault_state.perturb(round_index, feedback, fault_draws)
            hit = feedback == FB_SUCCESS
        if hit.any():
            winners = live[hit]
            solved[winners] = True
            rounds[winners] = round_index
            keep = ~hit
            live = live[keep]
            if live.size == 0:
                break
            decisions = np.compress(keep, decisions, axis=0)
            counts = counts[keep]
            if fault_state is not None:
                feedback = feedback[keep]
                fault_state.filter(keep)
        if not channel.collision_detection:
            observations = np.full(live.size, OBS_QUIET, dtype=np.int8)
        elif feedback is None:
            observations = np.where(
                counts >= 2, OBS_COLLISION, OBS_SILENCE
            ).astype(np.int8)
        else:
            observations = np.where(
                feedback == FB_COLLISION, OBS_COLLISION, OBS_SILENCE
            ).astype(np.int8)
        sessions.observe(live, observations, decisions)
        round_index += 1
    rounds[live] = max_rounds
    return BatchExecutionResult(
        solved=solved, rounds=rounds, max_rounds=max_rounds, ks=_ks(ids)
    )


def _ks(ids: np.ndarray) -> np.ndarray:
    """Per-trial participant counts from the padded id array."""
    return (ids >= 0).sum(axis=1).astype(np.int64)
