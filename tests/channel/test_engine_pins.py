"""Golden pins for the closed uniform engines' random outputs.

Solo-vs-stacked tests compare two runs of the same code and the
scalar-vs-batch checks are statistical, so neither notices a change in
how the stacked engines consume their generators.  These pins do: for
every channel setting below, on no-CD and on CD, one stacked schedule
run (three points), one stacked history run (CD only, five points) and
each point again alone through ``run_uniform_batch`` at a shorter
budget, each point pinned by its successes, its sum of rounds and a
SHA-256 prefix of its ``solved``/``rounds`` bytes.

The values move only with a deliberate change to the engines' stream
contract; any other change that moves them is a bug.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.channel import (
    AdaptiveAdversary,
    Channel,
    CrashModel,
    NoisyChannel,
    ObliviousJammer,
    ReactiveJammer,
    run_history_stacked,
    run_schedule_stacked,
    run_uniform_batch,
)
from repro.core.uniform import HistoryPolicy, HistoryPolicyProtocol
from repro.infotheory.distributions import SizeDistribution
from repro.protocols.code_search import CodeSearchProtocol
from repro.protocols.decay import DecayProtocol
from repro.protocols.sorted_probing import SortedProbingProtocol
from repro.protocols.willard import WillardProtocol

N = 2**10
TRIALS = 96
STACKED_ROUNDS = 160
SOLO_ROUNDS = 48
#: Budgets that end inside a 16-round draw block.  The two above are
#: block multiples, so only these runs censor at a budget mid-block and
#: take a final refill narrower than a block (13 and 1 rounds wide).
OFF_BLOCK_ROUNDS = (45, 33)

SETTINGS = {
    "faithful": None,
    "jam-oblivious": ObliviousJammer(budget=4, start=2, period=3),
    "jam-reactive": ReactiveJammer(budget=5, quiet_streak=2),
    "noise": NoisyChannel(
        silence_to_collision=0.1, collision_to_silence=0.15,
        success_erasure=0.2,
    ),
    "crash-instant": CrashModel(probability=0.3, rejoin_after=0),
    "crash-rejoin": CrashModel(probability=0.3, rejoin_after=3),
    "crash-forever": CrashModel(probability=0.3),
    "adaptive-greedy": AdaptiveAdversary(budget=2, strategy="greedy"),
}


class _HalvingPolicy(HistoryPolicy):
    """Halve the probability after every collision."""

    name = "halving"

    def probability(self, history: str) -> float:
        return 0.5 ** min(history.count("1") + 1, 30)


def _prediction() -> SizeDistribution:
    return SizeDistribution.range_uniform_subset(N, [2, 4, 6])


def _schedule_protocols() -> list:
    return [
        DecayProtocol(N),
        SortedProbingProtocol(_prediction(), one_shot=True),
        DecayProtocol(N, cycle=False),
    ]


def _history_protocols() -> list:
    return [
        WillardProtocol(N),
        WillardProtocol(N),  # same signature as point 0: one shared trie
        WillardProtocol(N, restart=False),
        HistoryPolicyProtocol(_HalvingPolicy()),
        CodeSearchProtocol(_prediction(), one_shot=True),
    ]


def _ks(point: int) -> np.ndarray:
    return np.random.default_rng([7, point]).integers(1, 80, size=TRIALS)


def _rng(family: str, setting: str, cd: bool, point: int) -> np.random.Generator:
    key = hashlib.sha256(f"{family}/{setting}/{cd}".encode()).digest()
    return np.random.default_rng([int.from_bytes(key[:8], "big"), point])


def _pin(result) -> tuple[int, int, str]:
    digest = hashlib.sha256(
        np.ascontiguousarray(result.solved, dtype=bool).tobytes()
        + np.ascontiguousarray(result.rounds, dtype=np.int64).tobytes()
    ).hexdigest()[:12]
    return int(result.solved.sum()), int(result.rounds.sum()), digest


def observe(
    family: str,
    setting: str,
    cd: bool,
    budgets: tuple[int, int] = (STACKED_ROUNDS, SOLO_ROUNDS),
) -> dict[str, list]:
    """Per-point pins of one stacked run and its solo re-runs.

    ``budgets`` is the ``(stacked, solo)`` pair of round budgets.
    """
    stacked_rounds, solo_rounds = budgets
    channel = Channel(cd, SETTINGS[setting])
    if family == "schedule":
        protocols = _schedule_protocols()
        stacked = run_schedule_stacked(
            [protocol.batch_schedule() for protocol in protocols],
            [_ks(j) for j in range(len(protocols))],
            [_rng(family, setting, cd, j) for j in range(len(protocols))],
            channel=channel,
            max_rounds=stacked_rounds,
        )
    else:
        protocols = _history_protocols()
        stacked = run_history_stacked(
            protocols,
            [_ks(j) for j in range(len(protocols))],
            [_rng(family, setting, cd, j) for j in range(len(protocols))],
            channel=channel,
            max_rounds=stacked_rounds,
        )
    solo = [
        run_uniform_batch(
            protocol,
            _ks(j),
            _rng("solo-" + family, setting, cd, j),
            channel=channel,
            max_rounds=solo_rounds,
        )
        for j, protocol in enumerate(protocols)
    ]
    return {
        "stacked": [_pin(result) for result in stacked],
        "solo": [_pin(result) for result in solo],
    }


CASES = [
    (family, setting, cd)
    for family, channels in (("schedule", (False, True)), ("history", (True,)))
    for setting in SETTINGS
    for cd in channels
]


def _case_id(family: str, setting: str, cd: bool) -> str:
    return f"{family}/{setting}/{'cd' if cd else 'nocd'}"


@pytest.mark.parametrize(
    "family,setting,cd", CASES, ids=[_case_id(*case) for case in CASES]
)
def test_engine_outputs_are_pinned(family, setting, cd):
    assert observe(family, setting, cd) == PINS[_case_id(family, setting, cd)]


@pytest.mark.parametrize("cd", [False, True], ids=["nocd", "cd"])
def test_off_block_budgets_are_pinned(cd):
    """Faithful schedule runs whose budgets end inside a draw block."""
    case = _case_id("schedule", "faithful", cd)
    assert observe("schedule", "faithful", cd, OFF_BLOCK_ROUNDS) == (
        OFF_BLOCK_PINS[case]
    )


#: ``(successes, sum of rounds, digest prefix)`` per point, in point order.
PINS = {
    "schedule/faithful/nocd": {
        "stacked": [
            (96, 645, "40e7499907ae"), (82, 456, "1cdd3780f640"),
            (77, 557, "a74249f2065e"),
        ],
        "solo": [
            (96, 744, "98ed94e9e211"), (71, 526, "921b879336bc"),
            (82, 557, "eca5fac0b1ff"),
        ],
    },
    "schedule/faithful/cd": {
        "stacked": [
            (96, 810, "674e0996f964"), (74, 518, "dd049b7342a6"),
            (75, 567, "1b6f564d940e"),
        ],
        "solo": [
            (96, 653, "4288850881e6"), (75, 490, "2f4187bab1ed"),
            (83, 568, "d89b7a4272e0"),
        ],
    },
    "schedule/jam-oblivious/nocd": {
        "stacked": [
            (96, 844, "4d4c33a124a0"), (68, 567, "c60f34fb3caf"),
            (68, 633, "2a4a98624b76"),
        ],
        "solo": [
            (96, 783, "3d9a1031bdf0"), (67, 575, "c1b5f7149b1c"),
            (61, 649, "88aa4565d33e"),
        ],
    },
    "schedule/jam-oblivious/cd": {
        "stacked": [
            (96, 988, "c9cb4cbd5ff8"), (59, 639, "67823a6d33d1"),
            (69, 605, "42f0f03eebf7"),
        ],
        "solo": [
            (96, 919, "3c45b6c9c2db"), (68, 632, "139362a3de54"),
            (58, 660, "c35ca3b19985"),
        ],
    },
    "schedule/jam-reactive/nocd": {
        "stacked": [
            (96, 773, "db93be3fd3e1"), (74, 526, "ab1591576976"),
            (77, 551, "3e626dec91e8"),
        ],
        "solo": [
            (96, 807, "17797c277ebd"), (73, 468, "eee5e2e58bf7"),
            (70, 574, "a93c6dcb7995"),
        ],
    },
    "schedule/jam-reactive/cd": {
        "stacked": [
            (96, 732, "2bfce38d84c8"), (73, 518, "2b5615959513"),
            (75, 562, "a515a4f348c9"),
        ],
        "solo": [
            (96, 861, "2e40add78734"), (79, 486, "1b91c1800b91"),
            (74, 577, "7a2065fd8683"),
        ],
    },
    "schedule/noise/nocd": {
        "stacked": [
            (96, 982, "8f020e0aef56"), (62, 644, "9423e6c80aea"),
            (76, 582, "83083affaa70"),
        ],
        "solo": [
            (96, 694, "6bcb233fd297"), (64, 620, "e13911a558d6"),
            (71, 597, "8117ffa58e1f"),
        ],
    },
    "schedule/noise/cd": {
        "stacked": [
            (96, 747, "29e30e7acb8e"), (69, 559, "dc50067baa5e"),
            (71, 589, "f0bb9dd1d984"),
        ],
        "solo": [
            (96, 842, "48d5d122b9a1"), (66, 561, "377fe2b38e77"),
            (78, 564, "cfbb29d5c009"),
        ],
    },
    "schedule/crash-instant/nocd": {
        "stacked": [
            (96, 974, "0bf7492adf25"), (64, 608, "1aeff5083440"),
            (64, 644, "dd710ddbb28b"),
        ],
        "solo": [
            (95, 1176, "34e7e5243763"), (62, 611, "f66148d28a1e"),
            (66, 636, "1cc3cd492caf"),
        ],
    },
    "schedule/crash-instant/cd": {
        "stacked": [
            (96, 774, "83179f537248"), (60, 596, "b832f0bc0bec"),
            (64, 631, "fcd11ebc701c"),
        ],
        "solo": [
            (95, 966, "e8c23ea1b415"), (69, 592, "8d8c6fd8483b"),
            (64, 655, "c7513c9fc3b9"),
        ],
    },
    "schedule/crash-rejoin/nocd": {
        "stacked": [
            (96, 1085, "396d020c703b"), (63, 596, "f7e627c490fe"),
            (72, 603, "a0e0b8e71b00"),
        ],
        "solo": [
            (95, 1043, "12c2f6e5141c"), (56, 647, "f5bdd4340ba9"),
            (63, 651, "2dc11006ab7f"),
        ],
    },
    "schedule/crash-rejoin/cd": {
        "stacked": [
            (96, 1151, "b12c7234963e"), (63, 611, "019a3f31e2e9"),
            (56, 692, "e686a15b5b49"),
        ],
        "solo": [
            (95, 1206, "a36c59a61496"), (62, 612, "7cbf1b3e85c8"),
            (63, 640, "1e5c20b637dc"),
        ],
    },
    "schedule/crash-forever/nocd": {
        "stacked": [
            (96, 930, "41f680b1b454"), (54, 637, "86e649e0a423"),
            (67, 637, "914f939361ca"),
        ],
        "solo": [
            (95, 936, "8edfe448870b"), (66, 598, "52f5f6abf10e"),
            (64, 628, "d0edf897de6c"),
        ],
    },
    "schedule/crash-forever/cd": {
        "stacked": [
            (94, 1142, "17ea3db31de4"), (56, 665, "210ef1ff657a"),
            (60, 660, "c2c014367084"),
        ],
        "solo": [
            (96, 1008, "25009f70c49c"), (55, 661, "8c372de228ab"),
            (66, 628, "602dfaa4f2a2"),
        ],
    },
    "schedule/adaptive-greedy/nocd": {
        "stacked": [
            (96, 2010, "655471ec054c"), (12, 924, "e9b8b5d28c88"),
            (16, 911, "fa1e497024a9"),
        ],
        "solo": [
            (96, 1987, "f286b38deda0"), (18, 919, "6df05c19f638"),
            (21, 893, "2e4270c2da1e"),
        ],
    },
    "schedule/adaptive-greedy/cd": {
        "stacked": [
            (96, 2105, "019476c0f37f"), (20, 905, "14a937e2198b"),
            (9, 928, "3c6bc61c9ca3"),
        ],
        "solo": [
            (94, 2171, "05d690018f15"), (14, 924, "b1083cad07d8"),
            (9, 941, "e78cd18fa74d"),
        ],
    },
    "history/faithful/cd": {
        "stacked": [
            (96, 360, "dd6e8223fde4"), (96, 377, "c76ce2f41035"),
            (88, 385, "8701b9bbf6f7"), (96, 577, "6243098e5ba8"),
            (95, 426, "e50d7408a115"),
        ],
        "solo": [
            (96, 307, "7c04012e468d"), (96, 359, "c95c608fd9fe"),
            (87, 399, "582b118f06c9"), (96, 611, "51de7cdacae6"),
            (93, 389, "751a997f9d30"),
        ],
    },
    "history/jam-oblivious/cd": {
        "stacked": [
            (96, 451, "df727548d390"), (96, 516, "7bd227360e32"),
            (81, 489, "aeffdd04d44d"), (96, 966, "f04dafe1f761"),
            (85, 625, "176b27f61647"),
        ],
        "solo": [
            (96, 467, "31070d959dfa"), (96, 536, "e1a58cc35551"),
            (80, 515, "b78458d92a0e"), (95, 742, "7a0a651900d0"),
            (96, 576, "7eb7290a3b7a"),
        ],
    },
    "history/jam-reactive/cd": {
        "stacked": [
            (96, 391, "05452ba66687"), (96, 439, "c4b8fa52f853"),
            (91, 367, "b6e45825cab7"), (94, 1137, "03307515285f"),
            (94, 475, "9617c25b44eb"),
        ],
        "solo": [
            (96, 404, "97fd0b014e50"), (96, 437, "4f39395ef4de"),
            (89, 389, "2980ef2347d5"), (94, 640, "ad0154512d2b"),
            (96, 451, "5e15711c763e"),
        ],
    },
    "history/noise/cd": {
        "stacked": [
            (96, 599, "6f9c45973dc7"), (96, 470, "f137a2392721"),
            (86, 446, "dd8fb1c37a86"), (96, 718, "fb519a62e30c"),
            (92, 515, "c4b4ff80c52e"),
        ],
        "solo": [
            (96, 553, "eaf92ec4e7f9"), (96, 417, "19030ac01fa6"),
            (81, 479, "344601473fcd"), (94, 773, "8a2c857aa377"),
            (88, 634, "c779c1d854d0"),
        ],
    },
    "history/crash-instant/cd": {
        "stacked": [
            (96, 664, "a88566be3cfe"), (96, 609, "9c8d633d9800"),
            (79, 478, "d22964cefc43"), (96, 730, "5739cb89ebc7"),
            (88, 632, "840eaeee2567"),
        ],
        "solo": [
            (96, 564, "61b05f710efc"), (96, 552, "9825c8fbe4c1"),
            (78, 558, "151ef537b212"), (96, 748, "53abae394373"),
            (86, 658, "9ca8ed0c0a54"),
        ],
    },
    "history/crash-rejoin/cd": {
        "stacked": [
            (96, 587, "88273c187a53"), (96, 550, "64acad5e7a45"),
            (85, 452, "d217a8d1dbcd"), (96, 740, "9ec082b7f41a"),
            (89, 594, "31cbd2b8a06a"),
        ],
        "solo": [
            (96, 685, "d2c96cd6bb37"), (96, 616, "bf9c9b525848"),
            (79, 487, "0a821a755878"), (96, 737, "3f83ddb9e5ea"),
            (90, 656, "57a152aaab81"),
        ],
    },
    "history/crash-forever/cd": {
        "stacked": [
            (94, 918, "39578a3ee724"), (96, 467, "3c34120e309b"),
            (83, 523, "9e5a2df8113a"), (95, 964, "40926b12944a"),
            (89, 589, "9c04cc4f93fb"),
        ],
        "solo": [
            (94, 705, "ff62df82eae5"), (96, 548, "2fd6390f8c6c"),
            (75, 525, "77c28d96cf12"), (95, 765, "b8a63432ae83"),
            (90, 617, "93dddb72ead0"),
        ],
    },
    "history/adaptive-greedy/cd": {
        "stacked": [
            (96, 1347, "41611457a42f"), (96, 1082, "06a8a888dff3"),
            (54, 882, "9588e13f8558"), (96, 1730, "7b86617d622b"),
            (73, 1242, "a44b6e83a885"),
        ],
        "solo": [
            (96, 1170, "1f37cd4a4c14"), (96, 1243, "da6416133338"),
            (55, 837, "6bcf02bd6e11"), (92, 1749, "30dc735df091"),
            (68, 1137, "26426e99314d"),
        ],
    },
}

#: The faithful schedule cases again at :data:`OFF_BLOCK_ROUNDS`.
OFF_BLOCK_PINS = {
    "schedule/faithful/nocd": {
        "stacked": [
            (96, 645, "40e7499907ae"), (82, 456, "1cdd3780f640"),
            (77, 557, "a74249f2065e"),
        ],
        "solo": [
            (95, 729, "ed1b127fcfc6"), (71, 526, "921b879336bc"),
            (82, 557, "eca5fac0b1ff"),
        ],
    },
    "schedule/faithful/cd": {
        "stacked": [
            (95, 793, "f709ae564118"), (74, 518, "dd049b7342a6"),
            (75, 567, "1b6f564d940e"),
        ],
        "solo": [
            (96, 653, "4288850881e6"), (75, 490, "2f4187bab1ed"),
            (83, 568, "d89b7a4272e0"),
        ],
    },
}
