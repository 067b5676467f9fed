"""Non-interactive contention resolution (Theorem 3.3 and its reductions).

The deterministic advice lower bounds funnel through a one-round problem:
an algorithm/advice pair solves ``b(n)``-non-interactive contention
resolution when, for *every* participant set ``P``, the ``b(n)``-bit
advice alone causes exactly one member of ``P`` to transmit in round 1.
Theorem 3.3: this forces ``b(n) >= log2 n`` (via the strongly-selective
family bound of Theorem 3.2).

We implement the problem concretely (:class:`NonInteractiveScheme` -
advice function plus per-advice transmitter sets, with an exhaustive
verifier), the *constructive halves* of the paper's reductions
(Theorems 3.4 and 3.5: running a deterministic protocol locally to build
a non-interactive scheme with slightly longer advice), and brute-force
minimal-advice search for tiny ``n``.

A faithfulness note, mirrored in the tests: correctness of a scheme makes
the transmitter-set family a *weakly* selective family ("every ``P`` has
*some* isolated element"), which is what the paper's Theorem 3.3 proof
uses of it; the brute-force search here certifies the resulting
``>= n``-sets / ``>= log n``-bits conclusion exactly for small ``n``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Collection, Iterable

import numpy as np

from ..channel.channel import Channel
from ..channel.simulator import run_players
from ..core.advice import AdviceFunction
from ..core.feedback import Feedback, Observation
from ..core.protocol import PlayerProtocol

__all__ = [
    "NonInteractiveScheme",
    "verify_scheme",
    "is_weakly_selective",
    "exhaustive_minimum_weak_family_size",
    "scheme_from_protocol",
    "theorem_3_3_bound",
]


def theorem_3_3_bound(n: int) -> float:
    """Theorem 3.3's advice floor: ``b(n) >= log2 n`` bits."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return math.log2(n)


class NonInteractiveScheme:
    """An advice function plus transmitter sets, one per advice string.

    Parameters
    ----------
    n:
        Number of possible players.
    advice:
        Map from participant sets to advice strings.
    transmitters:
        Map from advice strings to the set ``V(s)`` of players that would
        transmit on receiving ``s``.

    The scheme solves non-interactive contention resolution when
    ``|V(advice(P)) ∩ P| = 1`` for every non-empty ``P``
    (:func:`verify_scheme`).
    """

    def __init__(
        self,
        n: int,
        advice: Callable[[frozenset[int]], str],
        transmitters: Callable[[str], frozenset[int]],
    ) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.advice = advice
        self.transmitters = transmitters

    def transmit_set(self, participants: frozenset[int]) -> frozenset[int]:
        """Who transmits in round 1 for participant set ``participants``."""
        return self.transmitters(self.advice(participants)) & participants

    def solves(self, participants: frozenset[int]) -> bool:
        """Whether exactly one participant transmits for this set."""
        return len(self.transmit_set(participants)) == 1


def _all_participant_sets(n: int) -> Iterable[frozenset[int]]:
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            yield frozenset(combo)


def verify_scheme(
    scheme: NonInteractiveScheme,
    *,
    participant_sets: Iterable[frozenset[int]] | None = None,
) -> frozenset[int] | None:
    """First participant set the scheme fails on, or ``None`` if correct.

    Default is exhaustive over all ``2^n - 1`` sets (small ``n``); pass an
    iterable to spot-check larger instances.
    """
    sets = participant_sets or _all_participant_sets(scheme.n)
    for participants in sets:
        if not scheme.solves(participants):
            return participants
    return None


def is_weakly_selective(family: Collection[Collection[int]], n: int) -> bool:
    """Whether every non-empty ``P ⊆ [n]`` has some ``F`` with ``|F∩P| = 1``.

    This is the combinatorial content of a correct non-interactive scheme:
    the advice function may pick, per ``P``, whichever family member
    isolates *some* element.
    """
    sets = [frozenset(member) for member in family]
    for participants in _all_participant_sets(n):
        if not any(len(member & participants) == 1 for member in sets):
            return False
    return True


def exhaustive_minimum_weak_family_size(n: int, *, max_size: int) -> int | None:
    """Minimal family size supporting a correct non-interactive scheme.

    Brute-force over families of subsets of ``[n]``; the minimal size
    equals ``2^b`` for the minimal advice length ``b``, so Theorem 3.3
    predicts a result of at least ``n``.  Exhaustive: keep ``n <= 5``.
    """
    if n > 6:
        raise ValueError(
            f"exhaustive search is infeasible beyond n=6 (got n={n})"
        )
    candidates = [
        frozenset(z)
        for size in range(1, n + 1)
        for z in itertools.combinations(range(n), size)
    ]
    for family_size in range(1, max_size + 1):
        for family in itertools.combinations(candidates, family_size):
            if is_weakly_selective(family, n):
                return family_size
    return None


def scheme_from_protocol(
    protocol: PlayerProtocol,
    advice_function: AdviceFunction,
    n: int,
    channel: Channel,
    *,
    max_rounds: int,
) -> tuple[NonInteractiveScheme, int]:
    """The Theorem 3.4/3.5 reduction, constructively.

    Runs the deterministic ``protocol`` (with its advice function) on a
    noiseless local simulation for each queried participant set, finds the
    solving round ``r``, and packages "replay the execution and fire at
    round ``r``" as a non-interactive scheme.  The returned advice length
    is ``advice_bits + ceil(log2 max_rounds)`` without CD and additionally
    ``+ (r - 1)`` history bits with CD - exactly the paper's accounting.

    Returns ``(scheme, advice_bits_used)`` where ``advice_bits_used`` is
    the worst-case advice length over the sets the scheme has been queried
    on (it is computed lazily and grows as sets are queried; callers
    typically exhaust all sets first via :func:`verify_scheme`).

    Determinism requirement: the protocol must be deterministic - the
    reduction replays executions, which is only meaningful when replays
    agree.  The deterministic advice protocols of Section 3.2 qualify.
    """
    # The rng is irrelevant for deterministic protocols but the engine
    # requires one; a fixed seed documents that nothing depends on it.
    rng = np.random.default_rng(0)
    worst_bits = 0

    cache: dict[frozenset[int], tuple[str, int, str]] = {}

    def analyse(participants: frozenset[int]) -> tuple[str, int, str]:
        """advice, solving round, collision-history bits for ``P``."""
        if participants not in cache:
            base_advice = advice_function.checked_advise(participants, n)
            result = run_players(
                protocol,
                participants,
                n,
                rng,
                channel=channel,
                advice_function=advice_function,
                max_rounds=max_rounds,
                record_trace=True,
            )
            if not result.solved:
                raise ValueError(
                    f"protocol failed to solve within {max_rounds} rounds "
                    f"for participants {sorted(participants)}"
                )
            history = "".join(
                "1" if record.feedback is Feedback.COLLISION else "0"
                for record in result.trace[: result.rounds - 1]
            )
            cache[participants] = (base_advice, result.rounds, history)
        return cache[participants]

    round_bits = max(1, math.ceil(math.log2(max_rounds + 1)))

    def advice(participants: frozenset[int]) -> str:
        nonlocal worst_bits
        base_advice, solving_round, history = analyse(participants)
        encoded_round = format(solving_round, "b").zfill(round_bits)
        if channel.collision_detection:
            # CD needs the collision history to replay (Theorem 3.5); pad
            # to a fixed width so advice strings are self-delimiting.
            padded_history = history.ljust(max_rounds, "0")
            advice_string = base_advice + encoded_round + padded_history
        else:
            # No-CD executions are silent until the solving round
            # (Theorem 3.4), so advice + round index suffice.
            advice_string = base_advice + encoded_round
        worst_bits = max(worst_bits, len(advice_string))
        return advice_string

    # A replay depends on the advice string alone, and a reduction
    # queries far more sets than it sees distinct strings.
    firing_sets: dict[str, frozenset[int]] = {}

    def transmitters(advice_string: str) -> frozenset[int]:
        if advice_string in firing_sets:
            return firing_sets[advice_string]
        base_bits = advice_function.bits
        base_advice = advice_string[:base_bits]
        solving_round = int(advice_string[base_bits : base_bits + round_bits], 2)
        history = advice_string[base_bits + round_bits :]
        firing: set[int] = set()
        for player_id in range(n):
            session = protocol.session(player_id, n, base_advice, rng=rng)
            transmitted = False
            for round_index in range(1, solving_round + 1):
                transmitted = session.decide()
                if round_index == solving_round:
                    break
                if channel.collision_detection:
                    observation = (
                        Observation.COLLISION
                        if history[round_index - 1] == "1"
                        else Observation.SILENCE
                    )
                else:
                    observation = Observation.QUIET
                session.observe(observation, transmitted=transmitted)
            if transmitted:
                firing.add(player_id)
        firing_sets[advice_string] = frozenset(firing)
        return firing_sets[advice_string]

    scheme = NonInteractiveScheme(n, advice, transmitters)
    return scheme, worst_bits
