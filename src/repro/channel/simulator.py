"""The synchronous round-by-round execution engine.

Two simulation paths, matching the two protocol families:

* :func:`run_uniform` - uniform protocols (Section 2).  All participants
  share one transmission probability per round, so the number of
  transmitters is **exactly** ``Binomial(k, p)``; drawing that binomial is
  a faithful simulation of the channel, not an approximation (identities
  are irrelevant to uniform algorithms - paper Section 2.2).  This makes
  Monte Carlo over large ``k`` cheap.

* :func:`run_players` - identity/advice-aware protocols (Section 3).  Each
  participant runs its own session; the advice function sees the
  participant set first, exactly as in Section 3.1's model.

Both halt at the first round with exactly one transmitter (the problem's
success condition) or when the round budget is spent, and both optionally
record full traces.  Each has a vectorized lockstep counterpart for Monte
Carlo throughput (:mod:`repro.channel.batch` /
:mod:`repro.channel.batch_players`); the loops here remain the reference
implementations those engines are tested against.
"""

from __future__ import annotations

import numpy as np

from ..core.feedback import Feedback
from ..core.advice import AdviceFunction, NullAdvice
from ..core.protocol import (
    PlayerProtocol,
    ProtocolError,
    ScheduleExhausted,
    UniformProtocol,
)
from .channel import Channel
from .trace import ExecutionResult, RoundRecord

__all__ = [
    "run_uniform",
    "run_players",
    "checked_advice_source",
    "DEFAULT_MAX_ROUNDS",
]

#: Default per-execution round budget.  Generous enough that the paper's
#: algorithms terminate long before it at every experiment scale; harnesses
#: that measure *failures* set their own budget explicitly.
DEFAULT_MAX_ROUNDS = 1_000_000


def _check_channel(protocol_requires_cd: bool, channel: Channel) -> None:
    if protocol_requires_cd and not channel.collision_detection:
        raise ProtocolError(
            "protocol requires collision detection but the channel has none"
        )


def _check_budget(max_rounds: int) -> None:
    """Refuse a round budget that is not an integer >= 1.

    A float budget would otherwise play ``floor`` rounds on one engine
    and raise a stray ``TypeError`` on another, and a bool would run as
    a 1-round budget.  NumPy integers pass.
    """
    if isinstance(max_rounds, bool) or not isinstance(
        max_rounds, (int, np.integer)
    ):
        raise ValueError(
            f"round budget must be an integer >= 1, got {max_rounds!r}"
        )
    if max_rounds < 1:
        raise ValueError(f"round budget must be >= 1, got {max_rounds}")


def checked_advice_source(
    protocol: PlayerProtocol, advice_function: AdviceFunction | None
) -> AdviceFunction:
    """The advice function to evaluate, with the budget contract enforced.

    ``None`` means :class:`~repro.core.advice.NullAdvice`; a mismatch
    between the protocol's declared ``advice_bits`` and the function's
    budget is an error - the pair is co-designed (Section 3.1).  Shared
    by the scalar and batch player engines and the fused estimators so
    the contract (and its message) lives in one place.
    """
    advice_source = advice_function if advice_function is not None else NullAdvice()
    if advice_source.bits != protocol.advice_bits:
        raise ProtocolError(
            f"protocol expects {protocol.advice_bits} advice bits but the "
            f"advice function provides {advice_source.bits}"
        )
    return advice_source


def run_uniform(
    protocol: UniformProtocol,
    k: int,
    rng: np.random.Generator,
    *,
    channel: Channel,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
) -> ExecutionResult:
    """Execute a uniform protocol with ``k`` participants.

    Returns an :class:`~repro.channel.trace.ExecutionResult`; ``solved`` is
    ``False`` when the budget ran out or a one-shot schedule exhausted
    without success.

    Notes
    -----
    ``k = 1`` is permitted (the lone participant solves the problem in the
    first round it transmits); ``k = 0`` is rejected - the problem assumes
    a non-empty participant set.
    """
    if k < 1:
        raise ValueError(f"participant count must be >= 1, got {k}")
    _check_budget(max_rounds)
    _check_channel(protocol.requires_collision_detection, channel)

    model = channel.active_model
    fault = model.scalar_state() if model is not None else None
    session = protocol.session()
    trace: list[RoundRecord] = []
    for round_index in range(1, max_rounds + 1):
        try:
            probability = session.next_probability()
        except ScheduleExhausted:
            return ExecutionResult(
                solved=False,
                rounds=round_index - 1,
                max_rounds=max_rounds,
                k=k,
                trace=trace,
            )
        # Crash faults shrink the live participant count; every other
        # model leaves it at k (the FaultState default).
        k_active = fault.active_count(k, round_index) if fault is not None else k
        transmit_count = int(rng.binomial(k_active, probability))
        feedback = channel.resolve(transmit_count)
        if fault is not None:
            feedback = fault.deliver(round_index, feedback, rng)
        observation = channel.observation(feedback)
        if record_trace:
            trace.append(
                RoundRecord(
                    round_index=round_index,
                    probability=probability,
                    transmit_count=transmit_count,
                    feedback=feedback,
                    observation=observation,
                )
            )
        if feedback is Feedback.SUCCESS:
            return ExecutionResult(
                solved=True,
                rounds=round_index,
                max_rounds=max_rounds,
                k=k,
                trace=trace,
            )
        session.observe(observation)
    return ExecutionResult(
        solved=False, rounds=max_rounds, max_rounds=max_rounds, k=k, trace=trace
    )


def run_players(
    protocol: PlayerProtocol,
    participants: frozenset[int],
    n: int,
    rng: np.random.Generator,
    *,
    channel: Channel,
    advice_function: AdviceFunction | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    record_trace: bool = False,
) -> ExecutionResult:
    """Execute an identity-aware protocol on an explicit participant set.

    The advice function (default: :class:`~repro.core.advice.NullAdvice`)
    is evaluated once on the participant set and its output handed to every
    player session, following Section 3.1.  A mismatch between the
    protocol's declared ``advice_bits`` and the advice function's budget is
    an error: the pair is co-designed.
    """
    if not participants:
        raise ValueError("participant set must be non-empty")
    _check_budget(max_rounds)
    _check_channel(protocol.requires_collision_detection, channel)

    advice_source = checked_advice_source(protocol, advice_function)
    advice = advice_source.checked_advise(participants, n)

    # Player order is fixed (sorted) so executions are reproducible; the
    # simulation rng is handed to every session (randomized protocols draw
    # from it, deterministic ones ignore it).
    ordered = sorted(participants)
    sessions = {
        player_id: protocol.session(player_id, n, advice, rng=rng)
        for player_id in ordered
    }

    model = channel.active_model
    fault = model.scalar_state() if model is not None else None
    # Crashed players: id -> round at which they re-enter (None = never).
    # While dead a player neither decides nor observes; it rejoins with a
    # *fresh* session (a restart, not a resume).
    dead: dict[int, int | None] = {}

    trace: list[RoundRecord] = []
    for round_index in range(1, max_rounds + 1):
        if dead:
            for player_id in [
                pid
                for pid, rejoin in dead.items()
                if rejoin is not None and rejoin <= round_index
            ]:
                del dead[player_id]
                sessions[player_id] = protocol.session(
                    player_id, n, advice, rng=rng
                )
        try:
            decisions = {
                player_id: False if player_id in dead else session.decide()
                for player_id, session in sessions.items()
            }
        except ScheduleExhausted:
            return ExecutionResult(
                solved=False,
                rounds=round_index - 1,
                max_rounds=max_rounds,
                k=len(participants),
                trace=trace,
            )
        transmit_count = sum(1 for transmitted in decisions.values() if transmitted)
        feedback = channel.resolve(transmit_count)
        if fault is not None:
            feedback = fault.deliver(round_index, feedback, rng)
            if fault.take_crash():
                # The lone transmitter of this (erased) success crashed.
                crashed_id = next(
                    pid for pid, sent in decisions.items() if sent
                )
                rejoin = model.rejoin_after
                dead[crashed_id] = (
                    None if rejoin is None else round_index + rejoin + 1
                )
        observation = channel.observation(feedback)
        if record_trace:
            trace.append(
                RoundRecord(
                    round_index=round_index,
                    probability=None,
                    transmit_count=transmit_count,
                    feedback=feedback,
                    observation=observation,
                )
            )
        if feedback is Feedback.SUCCESS:
            return ExecutionResult(
                solved=True,
                rounds=round_index,
                max_rounds=max_rounds,
                k=len(participants),
                trace=trace,
            )
        for player_id, session in sessions.items():
            if player_id in dead:
                continue
            session.observe(observation, transmitted=decisions[player_id])
    return ExecutionResult(
        solved=False,
        rounds=max_rounds,
        max_rounds=max_rounds,
        k=len(participants),
        trace=trace,
    )
