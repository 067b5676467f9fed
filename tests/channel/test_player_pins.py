"""Golden pins for the player engines' outputs.

The batch-vs-scalar player tests compare deterministic protocols trial
by trial but randomized ones only statistically, and the stacked-vs-solo
tests compare two runs of the same loop, so none of them notices a
change in how ``run_players_batch`` consumes its generator or how the
shared round loop retires and filters rows.  These pins do: every
protocol below runs through ``run_players_batch`` under each channel
setting it accepts, and the randomness-free ones again through
``run_players_stacked`` (two points per stacked run) under the models
that engine accepts.  Each run or point is pinned by its successes, its
sum of rounds and a SHA-256 prefix of its ``solved``/``rounds`` bytes.

The cases are chosen so every bookkeeping path runs: bit-flipped advice
makes some scan rows exhaust their subtree and some descent rows fail
at the leaf, the fallback switches rows by budget and by early
exhaustion onto a non-cycling decay that exhausts in turn, and the
reactive jammer keeps per-row state that a misaligned row filter would
scramble.

The values move only with a deliberate change to how the player engines
consume randomness; any other change that moves them is a bug.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.channel import (
    Channel,
    CrashModel,
    NoisyChannel,
    ObliviousJammer,
    ReactiveJammer,
    run_players_batch,
    run_players_stacked,
)
from repro.channel.network import RandomAdversary, SuffixAdversary
from repro.core.advice import MinIdPrefixAdvice
from repro.core.faulty_advice import BitFlipAdvice
from repro.protocols import (
    BinaryExponentialBackoff,
    DecayProtocol,
    DeterministicScanProtocol,
    DeterministicTreeDescentProtocol,
    FallbackPlayerProtocol,
    UniformAsPlayerProtocol,
    WillardProtocol,
)

N = 2**8
TRIALS = 64
MAX_ROUNDS = 96
FLIP = 0.3

SETTINGS = {
    "faithful": None,
    "jam-oblivious": ObliviousJammer(budget=4, start=2, period=3),
    "jam-reactive": ReactiveJammer(budget=5, quiet_streak=2),
    "noise": NoisyChannel(
        silence_to_collision=0.1, collision_to_silence=0.15,
        success_erasure=0.2,
    ),
    "crash-instant": CrashModel(probability=0.3, rejoin_after=0),
}
#: The settings ``run_players_stacked`` accepts (no fault draws).
STACKED_SETTINGS = ("faithful", "jam-oblivious", "jam-reactive")


def _fallback(budget_rounds: int) -> FallbackPlayerProtocol:
    return FallbackPlayerProtocol(
        DeterministicScanProtocol(3),
        UniformAsPlayerProtocol(DecayProtocol(N, cycle=False)),
        budget_rounds=budget_rounds,
    )


#: name -> (protocol factory, advice bits or None, adversary).  Advice
#: is the min-id prefix with each bit flipped with probability FLIP.
PROTOCOLS = {
    "scan": (lambda: DeterministicScanProtocol(2), 2, SuffixAdversary()),
    "descent": (
        lambda: DeterministicTreeDescentProtocol(3), 3, RandomAdversary(),
    ),
    "backoff": (BinaryExponentialBackoff, None, RandomAdversary()),
    "uap-decay": (
        lambda: UniformAsPlayerProtocol(DecayProtocol(N)), None,
        RandomAdversary(),
    ),
    "uap-willard": (
        lambda: UniformAsPlayerProtocol(WillardProtocol(N)), None,
        RandomAdversary(),
    ),
    # Budget 16 < the scan's 32 rounds: every row switches at round 17.
    "fallback-budget": (lambda: _fallback(16), 3, SuffixAdversary()),
    # Budget 48 > 32: rows the advice misleads exhaust and switch early.
    "fallback-early": (lambda: _fallback(48), 3, SuffixAdversary()),
}
STACKED_PROTOCOLS = ("scan", "descent")


def _rng(*labels: object) -> np.random.Generator:
    key = hashlib.sha256("/".join(map(str, labels)).encode()).digest()
    return np.random.default_rng(int.from_bytes(key[:8], "big"))


def _point_inputs(name: str, tag: str):
    """One point's participant sets and advice function, drawn by tag."""
    _, bits, adversary = PROTOCOLS[name]
    sets_rng = _rng("sets", tag)
    sizes = sets_rng.integers(1, 41, size=TRIALS)
    sets = [adversary.checked_select(N, int(k), sets_rng) for k in sizes]
    advice_function = (
        None if bits is None
        else BitFlipAdvice(MinIdPrefixAdvice(bits), FLIP, _rng("advice", tag))
    )
    return sets, advice_function


def _pin(result) -> tuple[int, int, str]:
    digest = hashlib.sha256(
        np.ascontiguousarray(result.solved, dtype=bool).tobytes()
        + np.ascontiguousarray(result.rounds, dtype=np.int64).tobytes()
    ).hexdigest()[:12]
    return int(result.solved.sum()), int(result.rounds.sum()), digest


def observe(engine: str, name: str, setting: str, cd: bool) -> list:
    """Pins of one batch run, or of each point of one stacked run."""
    tag = f"{engine}/{name}/{setting}/{cd}"
    make_protocol = PROTOCOLS[name][0]
    channel = Channel(cd, SETTINGS[setting])
    if engine == "batch":
        sets, advice_function = _point_inputs(name, tag)
        result = run_players_batch(
            make_protocol(), sets, N, _rng("engine", tag), channel=channel,
            advice_function=advice_function, max_rounds=MAX_ROUNDS,
        )
        return [_pin(result)]
    all_sets: list = []
    all_advice: list = []
    for point in range(2):
        sets, advice_function = _point_inputs(name, f"{tag}/{point}")
        all_sets.extend(sets)
        all_advice.extend(advice_function.checked_advise(s, N) for s in sets)
    stacked = run_players_stacked(
        make_protocol(), all_sets, N, all_advice, channel=channel,
        max_rounds=MAX_ROUNDS,
    )
    return [
        _pin(stacked.sliced(point * TRIALS, (point + 1) * TRIALS))
        for point in range(2)
    ]


def _channels(name: str) -> tuple[bool, ...]:
    needs_cd = PROTOCOLS[name][0]().requires_collision_detection
    return (True,) if needs_cd else (False, True)


CASES = [
    ("batch", name, setting, cd)
    for name in PROTOCOLS
    for setting in SETTINGS
    for cd in _channels(name)
] + [
    ("stacked", name, setting, cd)
    for name in STACKED_PROTOCOLS
    for setting in STACKED_SETTINGS
    for cd in _channels(name)
]


def _case_id(engine: str, name: str, setting: str, cd: bool) -> str:
    return f"{engine}/{name}/{setting}/{'cd' if cd else 'nocd'}"


@pytest.mark.parametrize(
    "engine,name,setting,cd", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_player_engine_outputs_are_pinned(engine, name, setting, cd):
    assert observe(engine, name, setting, cd) == PINS[
        _case_id(engine, name, setting, cd)
    ]


#: ``(successes, sum of rounds, digest prefix)`` per run (batch) or per
#: point (stacked).
PINS = {
    "batch/scan/faithful/nocd": [(29, 3558, "066f5e8d30e3")],
    "batch/scan/faithful/cd": [(33, 3548, "47bf1fa9c4ab")],
    "batch/scan/jam-oblivious/nocd": [(32, 3439, "76e286342b9c")],
    "batch/scan/jam-oblivious/cd": [(31, 3513, "6c1e10f1e76d")],
    "batch/scan/jam-reactive/nocd": [(36, 3435, "bb4f17a6e46e")],
    "batch/scan/jam-reactive/cd": [(37, 3288, "f63d85e8209b")],
    "batch/scan/noise/nocd": [(33, 3441, "01b35236b389")],
    "batch/scan/noise/cd": [(29, 3449, "66ec4ff6b710")],
    "batch/scan/crash-instant/nocd": [(19, 3760, "b073ade7fdfd")],
    "batch/scan/crash-instant/cd": [(38, 3455, "52f8760f4a57")],
    "batch/descent/faithful/cd": [(55, 170, "02f3ba30050d")],
    "batch/descent/jam-oblivious/cd": [(47, 221, "04b9423dbfb3")],
    "batch/descent/jam-reactive/cd": [(45, 208, "ba9262ade34b")],
    "batch/descent/noise/cd": [(51, 192, "e38d1067079f")],
    "batch/descent/crash-instant/cd": [(42, 238, "8d0193812719")],
    "batch/backoff/faithful/cd": [(64, 317, "b704b59662a9")],
    "batch/backoff/jam-oblivious/cd": [(64, 410, "6edad93bfc11")],
    "batch/backoff/jam-reactive/cd": [(64, 363, "c6d5de9e7f45")],
    "batch/backoff/noise/cd": [(64, 500, "33e76ca02fdf")],
    "batch/backoff/crash-instant/cd": [(64, 408, "c05ff61185e4")],
    "batch/uap-decay/faithful/nocd": [(64, 326, "ece8d5ab0771")],
    "batch/uap-decay/faithful/cd": [(64, 375, "c3f7235c774d")],
    "batch/uap-decay/jam-oblivious/nocd": [(64, 484, "3e7973f72755")],
    "batch/uap-decay/jam-oblivious/cd": [(64, 463, "5ed8c7ea58e3")],
    "batch/uap-decay/jam-reactive/nocd": [(64, 416, "25da2642ae89")],
    "batch/uap-decay/jam-reactive/cd": [(64, 458, "a3b5aa764bed")],
    "batch/uap-decay/noise/nocd": [(64, 482, "0ee592f97199")],
    "batch/uap-decay/noise/cd": [(64, 424, "bb05f5bf803f")],
    "batch/uap-decay/crash-instant/nocd": [(64, 497, "4662bd493838")],
    "batch/uap-decay/crash-instant/cd": [(64, 525, "8a8d9469f948")],
    "batch/uap-willard/faithful/cd": [(64, 251, "a04e607dc0db")],
    "batch/uap-willard/jam-oblivious/cd": [(64, 320, "32577adb200b")],
    "batch/uap-willard/jam-reactive/cd": [(64, 202, "084e155d3fcf")],
    "batch/uap-willard/noise/cd": [(64, 311, "e64dbc85b95c")],
    "batch/uap-willard/crash-instant/cd": [(64, 318, "3a3ee6d48fc0")],
    "batch/fallback-budget/faithful/nocd": [(55, 1181, "822dff29fc4b")],
    "batch/fallback-budget/faithful/cd": [(50, 1192, "704bb923ec96")],
    "batch/fallback-budget/jam-oblivious/nocd": [(46, 1205, "efaf39932990")],
    "batch/fallback-budget/jam-oblivious/cd": [(56, 1212, "b685a48c4cb4")],
    "batch/fallback-budget/jam-reactive/nocd": [(54, 1161, "453a5d38573e")],
    "batch/fallback-budget/jam-reactive/cd": [(54, 1217, "debf43e14572")],
    "batch/fallback-budget/noise/nocd": [(49, 1237, "afb2fff665b8")],
    "batch/fallback-budget/noise/cd": [(43, 1275, "e7c7f7285992")],
    "batch/fallback-budget/crash-instant/nocd": [(49, 1272, "927fd10b4e06")],
    "batch/fallback-budget/crash-instant/cd": [(46, 1186, "d92a32267092")],
    "batch/fallback-early/faithful/nocd": [(55, 1982, "8518b4fc9509")],
    "batch/fallback-early/faithful/cd": [(60, 2009, "9bdcdc8a57f3")],
    "batch/fallback-early/jam-oblivious/nocd": [(57, 1897, "7eb9d226a4c5")],
    "batch/fallback-early/jam-oblivious/cd": [(57, 1946, "298039e3471a")],
    "batch/fallback-early/jam-reactive/nocd": [(54, 1889, "17d1d0311807")],
    "batch/fallback-early/jam-reactive/cd": [(60, 1788, "876b9fcdbe23")],
    "batch/fallback-early/noise/nocd": [(54, 2010, "6aceeb9f8f18")],
    "batch/fallback-early/noise/cd": [(51, 1835, "0446b59921b4")],
    "batch/fallback-early/crash-instant/nocd": [(50, 2037, "f01272e23a4e")],
    "batch/fallback-early/crash-instant/cd": [(59, 1747, "64c03d217432")],
    "stacked/scan/faithful/nocd": [
        (31, 3484, "7b38c403a188"), (37, 3327, "c44748afb2c5"),
    ],
    "stacked/scan/faithful/cd": [
        (30, 3393, "41ac84a0ba98"), (27, 3565, "6129b9609692"),
    ],
    "stacked/scan/jam-oblivious/nocd": [
        (32, 3536, "f1ca74c472f1"), (28, 3559, "0711e2a95e1a"),
    ],
    "stacked/scan/jam-oblivious/cd": [
        (31, 3520, "35705e681321"), (36, 3404, "325097418cf3"),
    ],
    "stacked/scan/jam-reactive/nocd": [
        (26, 3548, "cd79703bd152"), (30, 3560, "3375a3aa03f5"),
    ],
    "stacked/scan/jam-reactive/cd": [
        (37, 3409, "489600373fcf"), (39, 3252, "770b9079cfc3"),
    ],
    "stacked/descent/faithful/cd": [
        (58, 155, "43c1373094ea"), (53, 183, "404573d9577c"),
    ],
    "stacked/descent/jam-oblivious/cd": [
        (43, 232, "096ddcf23c6e"), (43, 232, "e135cfa0e034"),
    ],
    "stacked/descent/jam-reactive/cd": [
        (54, 185, "b9562b19e081"), (53, 185, "f5eb1a7bc44e"),
    ],
}
