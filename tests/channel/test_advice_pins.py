"""Golden pins for every advice path the player engines take.

``test_player_pins.py`` runs the player engines under one advice source,
the min-id prefix with bit flips.  These pins cover the rest of what a
player point can be handed: each advice function of the scenario schema
(null, min-id prefix, range block, full id) under each corruption (none,
bit flips and adversarial complements, each at probability 0 and 0.3),
driving the deterministic scan without collision detection and the tree
descent with it, through both engine entry points:

* ``run_players_batch`` on sets drawn from their own generator, with the
  corruption bound to a second generator and the engine handed a third;
* a two-point ``estimate_player_rounds_many``, where each point's one
  generator draws its participant sets and then, through the
  corruption bound to it, its advice - the scenario runner's layout.

A case is pinned by its successes, a SHA-256 prefix of its results (the
``solved``/``rounds`` bytes of a batch run, each point's summary fields
for the estimator) and a SHA-256 prefix of every generator's next
``random()`` after the run: where each stream stopped.  The values move
only with a deliberate change to how advice draws its corruption or how
the engines consume it; any other change that moves them is a bug.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis.montecarlo import estimate_player_rounds_many
from repro.channel import Channel, run_players_batch
from repro.channel.network import RandomAdversary
from repro.core.advice import (
    FullIdAdvice,
    MinIdPrefixAdvice,
    NullAdvice,
    RangeBlockAdvice,
)
from repro.core.faulty_advice import AdversarialAdvice, BitFlipAdvice
from repro.protocols import (
    DeterministicScanProtocol,
    DeterministicTreeDescentProtocol,
)

N = 2**8
TRIALS = 48
MAX_ROUNDS = 64
ADVERSARY = RandomAdversary()

#: name -> advice function factory (its budget sets the protocol's).
FUNCTIONS = {
    "null": NullAdvice,
    "min-id-prefix": lambda: MinIdPrefixAdvice(3),
    "range-block": lambda: RangeBlockAdvice(2),
    "full-id": lambda: FullIdAdvice(N),
}
#: name -> (wrapper, probability), or None for clean advice.
CORRUPTIONS = {
    "none": None,
    "bit-flip-0": (BitFlipAdvice, 0.0),
    "bit-flip-0.3": (BitFlipAdvice, 0.3),
    "adversarial-0": (AdversarialAdvice, 0.0),
    "adversarial-0.3": (AdversarialAdvice, 0.3),
}
#: name -> (protocol class, collision detection).
PROTOCOLS = {
    "scan": (DeterministicScanProtocol, False),
    "descent": (DeterministicTreeDescentProtocol, True),
}


def _rng(*labels: object) -> np.random.Generator:
    key = hashlib.sha256("/".join(map(str, labels)).encode()).digest()
    return np.random.default_rng(int.from_bytes(key[:8], "big"))


def _advice(function: str, corruption: str, rng: np.random.Generator):
    base = FUNCTIONS[function]()
    if CORRUPTIONS[corruption] is None:
        return base
    wrapper, probability = CORRUPTIONS[corruption]
    return wrapper(base, probability, rng)


def _draw_set(rng: np.random.Generator) -> frozenset[int]:
    return ADVERSARY.checked_select(N, int(rng.integers(1, 9)), rng)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def _positions(*rngs: np.random.Generator) -> str:
    """Where each generator stopped: a digest of its next uniform."""
    return _digest(np.array([rng.random() for rng in rngs]).tobytes())


def observe(path: str, protocol: str, function: str, corruption: str) -> list:
    """``(successes, results digest, stream digest)`` per run or point.

    The generators are seeded without the corruption, so the corruptions
    of one function advise the same sets: at probability 0 they must
    give the clean results, and only where a stream stopped may differ.
    """
    tag = f"{path}/{protocol}/{function}"
    protocol_class, cd = PROTOCOLS[protocol]
    bits = FUNCTIONS[function]().bits
    channel = Channel(cd)
    if path == "batch":
        sets_rng = _rng("sets", tag)
        sets = [_draw_set(sets_rng) for _ in range(TRIALS)]
        advice_rng, engine_rng = _rng("advice", tag), _rng("engine", tag)
        result = run_players_batch(
            protocol_class(bits), sets, N, engine_rng, channel=channel,
            advice_function=_advice(function, corruption, advice_rng),
            max_rounds=MAX_ROUNDS,
        )
        results = _digest(
            np.ascontiguousarray(result.solved, dtype=bool).tobytes()
            + np.ascontiguousarray(result.rounds, dtype=np.int64).tobytes()
        )
        return [
            (
                int(result.solved.sum()), results,
                _positions(advice_rng, engine_rng),
            )
        ]
    rngs = [_rng("point", tag, point) for point in range(2)]
    estimates = estimate_player_rounds_many(
        protocol_class(bits), [_draw_set] * 2, N, rngs, channel=channel,
        advice_functions=[_advice(function, corruption, rng) for rng in rngs],
        trials=TRIALS, max_rounds=MAX_ROUNDS,
    )
    return [
        (
            estimate.success.successes,
            _digest(np.array(dataclasses.astuple(estimate.rounds)).tobytes()),
            _positions(rng),
        )
        for estimate, rng in zip(estimates, rngs)
    ]


CASES = [
    (path, protocol, function, corruption)
    for path in ("batch", "many")
    for protocol in PROTOCOLS
    for function in FUNCTIONS
    for corruption in CORRUPTIONS
]


@pytest.mark.parametrize(
    "path,protocol,function,corruption", CASES,
    ids=["/".join(case) for case in CASES],
)
def test_advice_paths_are_pinned(path, protocol, function, corruption):
    assert observe(path, protocol, function, corruption) == PINS[
        f"{path}/{protocol}/{function}/{corruption}"
    ]


#: ``(successes, results digest, stream digest)`` per run (batch) or per
#: point (many).
PINS: dict[str, list[tuple[int, str, str]]] = {
    "batch/scan/null/none": [(36, "e8cfed0bcb5f", "c11184b7d282")],
    "batch/scan/null/bit-flip-0": [(36, "e8cfed0bcb5f", "c11184b7d282")],
    "batch/scan/null/bit-flip-0.3": [(36, "e8cfed0bcb5f", "c11184b7d282")],
    "batch/scan/null/adversarial-0": [(36, "e8cfed0bcb5f", "c11184b7d282")],
    "batch/scan/null/adversarial-0.3": [(36, "e8cfed0bcb5f", "c11184b7d282")],
    "batch/scan/min-id-prefix/none": [(48, "cc8560552655", "055a7b8dd844")],
    "batch/scan/min-id-prefix/bit-flip-0": [
        (48, "cc8560552655", "055a7b8dd844"),
    ],
    "batch/scan/min-id-prefix/bit-flip-0.3": [
        (26, "5610ef064b73", "95040e87e329"),
    ],
    "batch/scan/min-id-prefix/adversarial-0": [
        (48, "cc8560552655", "85f8e0168ce1"),
    ],
    "batch/scan/min-id-prefix/adversarial-0.3": [
        (40, "f0e5971a514d", "85f8e0168ce1"),
    ],
    "batch/scan/range-block/none": [(30, "52e305200c37", "8b6cb98d6390")],
    "batch/scan/range-block/bit-flip-0": [
        (30, "52e305200c37", "8b6cb98d6390"),
    ],
    "batch/scan/range-block/bit-flip-0.3": [
        (29, "e361cb0de4b8", "5299e7945b4d"),
    ],
    "batch/scan/range-block/adversarial-0": [
        (30, "52e305200c37", "11783e9246dc"),
    ],
    "batch/scan/range-block/adversarial-0.3": [
        (28, "fb5c31d2e48c", "11783e9246dc"),
    ],
    "batch/scan/full-id/none": [(48, "bd2a2782cf5d", "264b42897062")],
    "batch/scan/full-id/bit-flip-0": [(48, "bd2a2782cf5d", "264b42897062")],
    "batch/scan/full-id/bit-flip-0.3": [(6, "cdadfa1253b7", "ac7a93b1ff98")],
    "batch/scan/full-id/adversarial-0": [(48, "bd2a2782cf5d", "375283ced477")],
    "batch/scan/full-id/adversarial-0.3": [
        (31, "c6bb6dcaf686", "375283ced477"),
    ],
    "batch/descent/null/none": [(48, "70c22a1996c0", "2a9298b63157")],
    "batch/descent/null/bit-flip-0": [(48, "70c22a1996c0", "2a9298b63157")],
    "batch/descent/null/bit-flip-0.3": [(48, "70c22a1996c0", "2a9298b63157")],
    "batch/descent/null/adversarial-0": [(48, "70c22a1996c0", "2a9298b63157")],
    "batch/descent/null/adversarial-0.3": [
        (48, "70c22a1996c0", "2a9298b63157"),
    ],
    "batch/descent/min-id-prefix/none": [(48, "60f6bb7affb5", "9047dcf46557")],
    "batch/descent/min-id-prefix/bit-flip-0": [
        (48, "60f6bb7affb5", "9047dcf46557"),
    ],
    "batch/descent/min-id-prefix/bit-flip-0.3": [
        (28, "ddb6933b6e6e", "01c663fbb631"),
    ],
    "batch/descent/min-id-prefix/adversarial-0": [
        (48, "60f6bb7affb5", "52a7b880c137"),
    ],
    "batch/descent/min-id-prefix/adversarial-0.3": [
        (36, "e212865dccaf", "52a7b880c137"),
    ],
    "batch/descent/range-block/none": [(37, "c7e64c6a8a09", "be42427b33a3")],
    "batch/descent/range-block/bit-flip-0": [
        (37, "c7e64c6a8a09", "be42427b33a3"),
    ],
    "batch/descent/range-block/bit-flip-0.3": [
        (34, "d32ec5c763a1", "db5d5f7a654d"),
    ],
    "batch/descent/range-block/adversarial-0": [
        (37, "c7e64c6a8a09", "3f1a46a3f241"),
    ],
    "batch/descent/range-block/adversarial-0.3": [
        (33, "ac4964f08949", "3f1a46a3f241"),
    ],
    "batch/descent/full-id/none": [(48, "bd2a2782cf5d", "749f5637d5e9")],
    "batch/descent/full-id/bit-flip-0": [(48, "bd2a2782cf5d", "749f5637d5e9")],
    "batch/descent/full-id/bit-flip-0.3": [
        (2, "502a5ac36d70", "c563c9a8dac6"),
    ],
    "batch/descent/full-id/adversarial-0": [
        (48, "bd2a2782cf5d", "f682884b5740"),
    ],
    "batch/descent/full-id/adversarial-0.3": [
        (29, "28cbe97474fd", "f682884b5740"),
    ],
    "many/scan/null/none": [
        (36, "8b610e4720ee", "02d4347e8745"),
        (27, "edcf4b8c2eae", "a72004edbf9e"),
    ],
    "many/scan/null/bit-flip-0": [
        (36, "8b610e4720ee", "02d4347e8745"),
        (27, "edcf4b8c2eae", "a72004edbf9e"),
    ],
    "many/scan/null/bit-flip-0.3": [
        (36, "8b610e4720ee", "02d4347e8745"),
        (27, "edcf4b8c2eae", "a72004edbf9e"),
    ],
    "many/scan/null/adversarial-0": [
        (36, "8b610e4720ee", "02d4347e8745"),
        (27, "edcf4b8c2eae", "a72004edbf9e"),
    ],
    "many/scan/null/adversarial-0.3": [
        (36, "8b610e4720ee", "02d4347e8745"),
        (27, "edcf4b8c2eae", "a72004edbf9e"),
    ],
    "many/scan/min-id-prefix/none": [
        (48, "e9c9a48f64eb", "56b22bde4e55"),
        (48, "e3dfa2ded64c", "9bea1d724c4a"),
    ],
    "many/scan/min-id-prefix/bit-flip-0": [
        (48, "e9c9a48f64eb", "56b22bde4e55"),
        (48, "e3dfa2ded64c", "9bea1d724c4a"),
    ],
    "many/scan/min-id-prefix/bit-flip-0.3": [
        (28, "cf066f98c7ca", "8f760b1c68e2"),
        (25, "56b559cef048", "7e3c3bf0227b"),
    ],
    "many/scan/min-id-prefix/adversarial-0": [
        (48, "e9c9a48f64eb", "946daa172f75"),
        (48, "e3dfa2ded64c", "20f19e2e7643"),
    ],
    "many/scan/min-id-prefix/adversarial-0.3": [
        (38, "20d88661e617", "946daa172f75"),
        (34, "85e3470f7606", "20f19e2e7643"),
    ],
    "many/scan/range-block/none": [
        (35, "9121210b8f00", "c2407b334490"),
        (29, "aed781becc55", "1b8c210701a3"),
    ],
    "many/scan/range-block/bit-flip-0": [
        (35, "9121210b8f00", "c2407b334490"),
        (29, "aed781becc55", "1b8c210701a3"),
    ],
    "many/scan/range-block/bit-flip-0.3": [
        (32, "7e9d7bbd711c", "05a95f4a9a1c"),
        (29, "da8d144b0ca2", "1c1d96f9dd15"),
    ],
    "many/scan/range-block/adversarial-0": [
        (35, "9121210b8f00", "31051990ff75"),
        (29, "aed781becc55", "bb0cab912412"),
    ],
    "many/scan/range-block/adversarial-0.3": [
        (30, "e153cafa7ab5", "31051990ff75"),
        (31, "8ffc1982fb9b", "bb0cab912412"),
    ],
    "many/scan/full-id/none": [
        (48, "15a4cf767bbd", "d1f389dfe94a"),
        (48, "15a4cf767bbd", "dc19e7ff9027"),
    ],
    "many/scan/full-id/bit-flip-0": [
        (48, "15a4cf767bbd", "d1f389dfe94a"),
        (48, "15a4cf767bbd", "dc19e7ff9027"),
    ],
    "many/scan/full-id/bit-flip-0.3": [
        (0, "3c00faeae653", "ae812384351e"),
        (4, "9c584c26b14b", "542c110b343c"),
    ],
    "many/scan/full-id/adversarial-0": [
        (48, "15a4cf767bbd", "d06f1baa79ad"),
        (48, "15a4cf767bbd", "603d1250923c"),
    ],
    "many/scan/full-id/adversarial-0.3": [
        (37, "9b587c18a638", "d06f1baa79ad"),
        (29, "5390da97bc47", "603d1250923c"),
    ],
    "many/descent/null/none": [
        (48, "284529e538f8", "f40ae9effd82"),
        (48, "ff36e6dad007", "8d0b00f8f198"),
    ],
    "many/descent/null/bit-flip-0": [
        (48, "284529e538f8", "f40ae9effd82"),
        (48, "ff36e6dad007", "8d0b00f8f198"),
    ],
    "many/descent/null/bit-flip-0.3": [
        (48, "284529e538f8", "f40ae9effd82"),
        (48, "ff36e6dad007", "8d0b00f8f198"),
    ],
    "many/descent/null/adversarial-0": [
        (48, "284529e538f8", "f40ae9effd82"),
        (48, "ff36e6dad007", "8d0b00f8f198"),
    ],
    "many/descent/null/adversarial-0.3": [
        (48, "284529e538f8", "f40ae9effd82"),
        (48, "ff36e6dad007", "8d0b00f8f198"),
    ],
    "many/descent/min-id-prefix/none": [
        (48, "b57738b7bdc9", "24252f590f30"),
        (48, "1ad209b49a9f", "e206a8cb6456"),
    ],
    "many/descent/min-id-prefix/bit-flip-0": [
        (48, "b57738b7bdc9", "24252f590f30"),
        (48, "1ad209b49a9f", "e206a8cb6456"),
    ],
    "many/descent/min-id-prefix/bit-flip-0.3": [
        (26, "c1a0096044e8", "3609675c1015"),
        (25, "ff562aca9867", "fc0a7ef22699"),
    ],
    "many/descent/min-id-prefix/adversarial-0": [
        (48, "b57738b7bdc9", "f6446c10713b"),
        (48, "1ad209b49a9f", "b88a052d52a9"),
    ],
    "many/descent/min-id-prefix/adversarial-0.3": [
        (38, "7aa68813d31d", "f6446c10713b"),
        (40, "0b614bf8a4bb", "b88a052d52a9"),
    ],
    "many/descent/range-block/none": [
        (32, "0d8133ded45f", "d58da3780acd"),
        (34, "b13fe45d0b0d", "df333495ff54"),
    ],
    "many/descent/range-block/bit-flip-0": [
        (32, "0d8133ded45f", "d58da3780acd"),
        (34, "b13fe45d0b0d", "df333495ff54"),
    ],
    "many/descent/range-block/bit-flip-0.3": [
        (25, "d210579637ee", "63f08cc9193b"),
        (34, "ea51bd126870", "ed6f9fc40d6e"),
    ],
    "many/descent/range-block/adversarial-0": [
        (32, "0d8133ded45f", "9bc00065d4ae"),
        (34, "b13fe45d0b0d", "0ab39e48428c"),
    ],
    "many/descent/range-block/adversarial-0.3": [
        (32, "d8b0af7f112b", "9bc00065d4ae"),
        (37, "025f4ce2e241", "0ab39e48428c"),
    ],
    "many/descent/full-id/none": [
        (48, "15a4cf767bbd", "0a3fdc2e4464"),
        (48, "15a4cf767bbd", "6e280d7db82f"),
    ],
    "many/descent/full-id/bit-flip-0": [
        (48, "15a4cf767bbd", "0a3fdc2e4464"),
        (48, "15a4cf767bbd", "6e280d7db82f"),
    ],
    "many/descent/full-id/bit-flip-0.3": [
        (6, "10e4c08328f5", "323fed621451"),
        (1, "6e350cdddf36", "955c94b1c4af"),
    ],
    "many/descent/full-id/adversarial-0": [
        (48, "15a4cf767bbd", "4ba568f0f589"),
        (48, "15a4cf767bbd", "3f52de319e7a"),
    ],
    "many/descent/full-id/adversarial-0.3": [
        (32, "c02459d11463", "4ba568f0f589"),
        (36, "ee5673757959", "3f52de319e7a"),
    ],
}
