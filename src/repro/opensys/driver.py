"""Open-loop execution: a live contention population over streaming traffic.

The closed engines answer "k players entered - how many rounds until the
first success?".  This driver answers the deployment question instead: a
channel serving *continuous* arrivals, where the contention level is the
emergent backlog, a resolved request departs recording its sojourn time,
and the survivors plus fresh arrivals contend again.  One trial is one
independent channel; a run advances ``trials`` channels for ``rounds``
rounds and accumulates every measured completion into one
:class:`~repro.opensys.latency.LatencyStore`.

Request lifecycle
-----------------
Every round, each trial's requests move through a fixed pipeline:

1. **Orbit release** - requests whose backoff expired leave the orbit
   (the retry queue) and present for admission again, oldest first.
2. **Admission** - orbit rejoiners (first) and fresh arrivals (second)
   pass the :class:`~repro.opensys.policies.AdmissionPolicy`; the grant
   is additionally clamped by the physical ``capacity``.  Admitted
   requests join the service buffer and contend from this round on.
3. **Channel round** - the backlog contends exactly as before: one
   trichotomy-band draw, optional fault perturbation, a delivered
   success departs one uniformly-drawn request (recording its
   per-request sojourn, measured from its *first* arrival).
4. **Timeout expiry** - requests whose current stay in the buffer
   reached ``timeout`` rounds are evicted (the timeout clock restarts
   on each re-admission; the sojourn clock never does).
5. **Retry resolution** - every refused or expired request asks the
   :class:`~repro.opensys.policies.RetryPolicy` what to do: enter the
   orbit with a policy-chosen rejoin round, or die (``dropped`` /
   ``timed_out`` on a first failure, ``abandoned`` once it has
   retried).

With the default policies (``give-up`` retry, ``capacity`` admission)
steps 1 and 5 are no-ops and the driver reproduces the PR 7 behaviour
bit for bit.

The vectorized engines settle step 5 in one failure pass per round:
the refusals of step 2 wait for the timeouts of step 4, and all of them
meet the retry policy together, each trial's refusals first - the order
in which the oracle fails them one by one.  The orbit is one flat
array of the waiting requests in the order they failed, so release is
one compare against the round and append is one concatenate.

Epoch semantics
---------------
The paper's protocols resolve one contention instance; an open system
chains them.  A trial's protocol state lives in *epochs*: the state
advances one step per contended round (exactly as in a closed execution),
resets to the empty history after every delivered success (the remaining
backlog plus newcomers start a fresh instance), resets when the backlog
drains to zero (the channel goes idle), and - mirroring the closed
engines' :class:`~repro.core.protocol.ScheduleExhausted` handling -
restarts from the empty history when a one-shot schedule gives up with
requests still pending.  Newcomers join the epoch in progress:
identity-oblivious uniform protocols cannot tell, and this is precisely
the unslotted-arrival regime the adversarial contention-resolution
literature studies.

Faithfulness and the stream contract
------------------------------------
A contended round with backlog ``k`` and probability ``p`` is simulated
by the same trichotomy-band compare as the closed batch engines (one
uniform against ``(1-p)^k`` / ``kp(1-p)^{k-1}``; see
:mod:`repro.channel.batch`), which is distribution-exact because uniform
protocols never see more than silence / success / collision.  An idle
round (``k = 0``) needs no special case: ``lo = (1-p)^0 = 1``, so the
draw always lands in the silence band.  On a delivered success one extra
pre-drawn uniform picks the departing request uniformly from the backlog
(uniform transmitters are exchangeable).  Fault models
(:mod:`repro.channel.models`) perturb the faithful code after the band
compare, exactly as in the closed engines; a success erased by noise or a
crash keeps the request in the population - the message was lost.

Randomness is drawn per trial from two :class:`numpy.random.SeedSequence`
children keyed ``spawn_key = (trial_offset + t, 0)`` (arrival stream)
and ``(trial_offset + t, 1)`` (channel stream) - exactly the
``.spawn(2)`` children of ``SeedSequence(seed, spawn_key=(trial_offset
+ t,))``, the :func:`~repro.scenarios.sweep.derive_point_seeds`
discipline, built directly - and consumed in fixed-width
:data:`_OPEN_BLOCK_ROUNDS`-round blocks with absolute boundaries.  The
oracle builds numpy's ``SeedSequence`` objects (:func:`_trial_streams`)
and refills one block at a time; the vectorized engines hash every
trial's seed words in one pass of a numpy port of ``SeedSequence``
(:func:`_spawn_states`, handed to each ``PCG64`` through
:class:`_SpawnedState`) and refill two blocks per call in place, into
buffers allocated once per run (:func:`_refill_blocks`).  A two-block
span draws a width-free process's counts
(:attr:`~repro.opensys.arrivals.ArrivalProcess.width_free`, Poisson) in
one call and every other family's in one call per block, so every
trial gets the numbers the oracle draws, and the oracle comparison
checks the seeding kernel and the two-block refill.  Each call's
arrival counts are checked for shape and integer dtype as they are
drawn, and a refill's counts for negatives once per refill.  The
uniform columns per round are positional - band draw, winner draw, then
one fault column (fault-drawing models), one admission column
(``shed``), and one retry column (``backoff`` with jitter) - so the
block shape depends only on the run's *specification*, never on the
population.  Both properties together make the engines *bit-identical
per trial*: the vectorized engines and the scalar oracle consume exactly
the same per-trial streams (unused draws are discarded, which is
distribution-neutral), and a run sharded as ``trial_offset = 0..a`` plus
``a..a+b`` merges to the unsharded run's store exactly.

Engines
-------
The two vectorized engines share one loop (:func:`_run_open_batch`)
that advances all trials at once: it owns the block pre-draw, the
request lifecycle, the band compare and the fault perturbation, and a
*band source* supplies each trial's protocol side - this round's band
edges at the trial's occupancy, the restart at the empty history, and
how a trial that contended without success moves on.

``open-schedule``
    Schedule-publishing protocols: a trial's band edges are a lookup at
    its epoch position and occupancy in a (schedule position x occupancy
    ``0..capacity``) table built once per run - 10 x 257 cells for decay
    at ``n = 1024`` and capacity 256, 210 x 257 for Jiang-Zheng at
    ``n = 2**20`` (:class:`_OpenScheduleSource`).
``open-history``
    Deterministic feedback-driven (CD) protocols: each trial carries a
    node id into the shared history-trie arena of
    :mod:`repro.channel.batch`, so probabilities are memoized per
    distinct history across trials, rounds and runs
    (:class:`_OpenHistorySource`).
``open-scalar``
    The correctness oracle: a per-trial Python loop driving real
    protocol sessions and a plain-list request lifecycle through the
    identical streams.  Also the only engine for randomized-session
    protocols.

Crash models with a non-zero rejoin delay are not expressible here (the
open population *is* the live count; a crashed-but-rejoining requester
would need per-request identity) and are rejected up front on every
engine by :func:`~repro.analysis.montecarlo.route`, which picks the
engine - the closed-system uniform engines run them through per-trial
active counts, but an open run has no fixed trial population to shrink.
Adaptive adversaries plug straight in: their per-trial state rides the
same ``batch_state``/``perturb`` contract as every other model, and the
open population never retires mid-run so their budget arrays never even
need filtering.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from ..analysis.montecarlo import (
    ENGINE_OPEN_HISTORY,
    ENGINE_OPEN_SCALAR,
    ENGINE_OPEN_SCHEDULE,
    route,
)
from ..channel.batch import _arena_for_run, _band_edges, _run_tokens
from ..channel.channel import Channel
from ..channel.simulator import _check_channel
from ..core.feedback import FB_COLLISION, FB_SILENCE, FB_SUCCESS, Observation
from ..core.protocol import (
    OBS_COLLISION,
    OBS_QUIET,
    OBS_SILENCE,
    ProtocolError,
    ScheduleExhausted,
    UniformProtocol,
)
from .arrivals import ArrivalProcess
from .latency import LatencyStore
from .policies import (
    AdmissionPolicy,
    GiveUpPolicy,
    HardCapacityPolicy,
    RetryPolicy,
    weyl_uniforms,
)

if TYPE_CHECKING:
    from ..channel.models import ChannelModel

__all__ = [
    "ENGINE_OPEN_SCHEDULE",
    "ENGINE_OPEN_HISTORY",
    "ENGINE_OPEN_SCALAR",
    "OpenRunResult",
    "run_open",
]

#: Rounds of arrivals and channel uniforms pre-drawn per trial at each
#: absolute block boundary (rounds 1, 1+B, 1+2B, ...); the vectorized
#: engines refill two blocks per call, the oracle one.  Boundaries and
#: shapes depend only on (rounds, trial), never on the population, so
#: every engine consumes identical per-trial streams.
_OPEN_BLOCK_ROUNDS = 32

#: Largest (schedule position x occupancy) band table an open schedule
#: run builds: 2**20 cells, 16 MiB for both edges.
_BAND_TABLE_CELLS = 1 << 20

#: Failure kinds the oracle's lifecycle hands to the retry policy (they
#: differ only in which counter a first-attempt death lands in).
_FAIL_ADMISSION = 0
_FAIL_TIMEOUT = 1

#: Planes of the packed per-request buffer (tracked lifecycle only).
_F_BORN = 0
_F_ADMITTED = 1
_F_TRIES = 2


@dataclass(frozen=True)
class _Columns:
    """Positional layout of the pre-drawn per-round uniform columns.

    Band and winner draws are always columns 0 and 1 - the PR 7 layout -
    and optional columns append in a fixed order (fault, admission,
    retry), so a zero-policy faithful run consumes exactly the PR 7
    stream.
    """

    fault: int | None
    admission: int | None
    retry: int | None
    total: int


def _column_layout(
    model: ChannelModel | None,
    admission: AdmissionPolicy,
    retry: RetryPolicy,
) -> _Columns:
    index = 2
    fault = admission_col = retry_col = None
    if model is not None and model.needs_fault_draws:
        fault = index
        index += 1
    if admission.needs_draws:
        admission_col = index
        index += 1
    if retry.needs_draws:
        retry_col = index
        index += 1
    return _Columns(
        fault=fault, admission=admission_col, retry=retry_col, total=index
    )


@dataclass(frozen=True)
class OpenRunResult:
    """One open run: the accumulated latency store plus the engine used."""

    store: LatencyStore
    engine: str


def _trial_streams(
    seed: int, trials: int, trial_offset: int
) -> list[tuple[np.random.Generator, np.random.Generator]]:
    """Per-trial (arrival, channel) generator pairs, prefix-stable.

    Trial ``t`` draws arrivals from ``SeedSequence(seed, spawn_key=(
    trial_offset + t, 0))`` and channel uniforms from ``(..., 1)``:
    exactly the ``.spawn(2)`` children of ``SeedSequence(seed,
    spawn_key=(trial_offset + t,))``, the child :func:`~repro.scenarios.
    sweep.derive_point_seeds` would hand out, built directly.  Shards
    ``[0, a)`` and ``[a, a+b)`` therefore reproduce exactly the trials
    of one ``[0, a+b)`` run.
    """
    streams = []
    for key in range(trial_offset, trial_offset + trials):
        arrival_seq = np.random.SeedSequence(seed, spawn_key=(key, 0))
        channel_seq = np.random.SeedSequence(seed, spawn_key=(key, 1))
        streams.append((
            np.random.Generator(np.random.PCG64(arrival_seq)),
            np.random.Generator(np.random.PCG64(channel_seq)),
        ))
    return streams


_MASK32 = 0xFFFFFFFF
#: ``SeedSequence``'s (initial constant, multiplier) of the pool mix and
#: of the state output.
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)


def _hashmix(value: np.ndarray, const: int, mult: int, call: int) -> np.ndarray:
    """``SeedSequence``'s hash step at its ``call``-th use: the constant
    advances on every call, whatever the data, so one call serves every
    trial at once."""
    xor, times = (const * pow(mult, k, 1 << 32) & _MASK32 for k in (call, call + 1))
    value = (value ^ xor) * times
    return value ^ (value >> 16)


def _spawn_states(seed: int, keys: Sequence[int], child: int) -> np.ndarray:
    """Rows of ``SeedSequence(seed, spawn_key=(key, child)).generate_state(
    4, np.uint64)``, one per non-negative key, in one vectorized pass per
    key length.

    The entropy is the seed's little-endian 32-bit words (``0`` is one
    zero word), zero-padded to four words since a spawn key is present,
    then the key's words and the child's word.  The pool after the seed
    words is numpy's own ``SeedSequence(seed).pool`` (unpadded, a short
    seed fills the pool as its zero words would), by which point the
    hash constant has taken four steps per padded seed word; each later
    word ``w`` mixes into every pool word ``x`` as ``0xca01f9dd * x -
    0x4973f715 * hashmix(w)``, xor-shifted.
    """
    sequence = np.random.SeedSequence(seed)
    prefix = sequence.pool[:, None]
    calls = 4 * max(4, -(-int(sequence.entropy).bit_length() // 32))
    rest = np.array(keys, dtype=object)
    key_words = [(rest & _MASK32).astype(np.uint32)]
    lengths = np.ones(rest.size, dtype=np.int64)
    while ((rest := rest >> 32) > 0).any():
        key_words.append((rest & _MASK32).astype(np.uint32))
        lengths += rest > 0
    states = np.empty((lengths.size, 4), dtype=np.uint64)
    for length in range(1, len(key_words) + 1):
        rows = (lengths == length).nonzero()[0]
        entropy = [part[rows] for part in key_words[:length]]
        entropy.append(np.array([child], dtype=np.uint32))
        pool = list(prefix)
        for call, (word, dst) in enumerate(product(entropy, range(4)), calls):
            mixed = pool[dst] * 0xCA01F9DD - _hashmix(word, *_HASH_A, call) * 0x4973F715
            pool[dst] = mixed ^ (mixed >> 16)
        out = [_hashmix(pool[i % 4], *_HASH_B, i) for i in range(8)]
        out = np.array(out, dtype=np.uint64)
        states[rows] = (out[0::2] | out[1::2] << 32).T
    return states


class _SpawnedState(ISeedSequence):
    """Hands a ``PCG64`` one precomputed :func:`_spawn_states` row."""

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a spawned state holds exactly 4 uint64 words")
        return self._state


def _seeded_streams(seed: int, trials: int, trial_offset: int) -> list:
    """:func:`_trial_streams`'s generators, seeded by :func:`_spawn_states`."""
    keys = range(trial_offset, trial_offset + trials)
    states = zip(*(_spawn_states(seed, keys, child) for child in (0, 1)))
    return [
        (Generator(PCG64(_SpawnedState(a))), Generator(PCG64(_SpawnedState(c))))
        for a, c in states
    ]


def _refill_blocks(
    processes: Sequence[ArrivalProcess],
    streams: Sequence[tuple[np.random.Generator, np.random.Generator]],
    round_index: int,
    rounds: int,
    columns: int,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw the per-trial arrivals and channel uniforms of a span.

    The shared half of the engines' stream contract.  The span is as
    wide as ``buffers`` (filled in place: the vectorized loop's two
    blocks) or, without them, one block in new arrays (the scalar
    oracle, with one-trial slices).  Per trial, the span's arrival
    counts come from its arrival generator in one call when the process
    is :attr:`~repro.opensys.arrivals.ArrivalProcess.width_free`, else
    one call per block, then a ``(width, columns)`` uniform block from
    its channel generator.  Each call's counts must be an integer array
    of its width's shape; negative counts are caught once per refill,
    naming the first offending trial's process.
    """
    remaining = rounds - round_index + 1
    if buffers is None:
        shape = (len(processes), min(_OPEN_BLOCK_ROUNDS, remaining))
        buffers = (np.empty(shape, dtype=np.int64), np.empty((*shape, columns)))
    arrival_counts, channel_draws = buffers
    width = min(arrival_counts.shape[1], remaining)
    for t, (process, (arrival_rng, channel_rng)) in enumerate(
        zip(processes, streams)
    ):
        step = width if process.width_free else _OPEN_BLOCK_ROUNDS
        for start in range(0, width, step):
            block = min(step, width - start)
            counts = np.asarray(process.sample_rounds(arrival_rng, block))
            if counts.shape != (block,):
                raise ValueError(
                    f"arrival process {process.name!r} returned shape "
                    f"{counts.shape}, expected ({block},)"
                )
            if counts.dtype.kind not in "iu":
                raise ValueError(
                    f"arrival process {process.name!r} returned "
                    f"{counts.dtype} counts, expected integers"
                )
            arrival_counts[t, start : start + block] = counts
        channel_rng.random(out=channel_draws[t, :width])
    if arrival_counts.min() < 0:
        t = int(np.flatnonzero((arrival_counts < 0).any(axis=1))[0])
        raise ValueError(
            f"arrival process {processes[t].name!r} returned negative counts"
        )
    return arrival_counts, channel_draws


def _trichotomy(u: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Delivered-feedback codes of one round, vectorized across trials.

    The closed engines' band compare against the edges of
    :func:`~repro.channel.batch._band_edges`, whose ``k = 0`` edges make
    idle channels hear silence without a special case.  The code is the
    number of edges the draw passed: ``lo <= hi``, and silence, success
    and collision are 0, 1 and 2.
    """
    return np.add(u >= lo, u >= hi, dtype=np.int64)


def _row_ranks(rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Within-trial ranks of a row-major flat group.

    ``rows`` must be sorted ascending (the order ``np.nonzero`` emits),
    so entries of one trial are contiguous, and ``counts`` holds each
    trial's number of entries; the rank is each entry's 0-based position
    within its trial's segment.
    """
    return np.arange(rows.size) - (counts.cumsum() - counts)[rows]


class _BatchLifecycle:
    """Vectorized request-lifecycle state shared by the open engines.

    Holds the service buffer (parallel ``(trials, capacity)`` arrays:
    first-arrival round, plus current-admission round and retry count
    when a retry policy can populate them), the orbit and the admission
    state.  The orbit is one ``(4, M)`` int64 array of the requests
    waiting to rejoin (rejoin round, trial, born, tries), in the order
    they failed: release is one ``== round`` mask plus a stable sort by
    trial, and append is one concatenate.  Each round's failures settle
    in one pass: :meth:`begin_round` holds its admission refusals and
    :meth:`end_round` resolves them together with the round's timeouts,
    the refusals first within each trial - the order the scalar oracle
    fails them in.  All mutations preserve the deterministic orderings
    the oracle mirrors with plain lists: orbit release is stable (by
    trial, then insertion order), timeout expiry is a stable compaction,
    buffer departure is the winner swap-remove, and the j-th retry a
    trial schedules in a round takes the j-th Weyl rotation of the
    round's retry draw.
    """

    def __init__(
        self,
        trials: int,
        capacity: int,
        timeout: int | None,
        warmup: int,
        admission: AdmissionPolicy,
        retry: RetryPolicy,
        store: LatencyStore,
    ) -> None:
        self.trials = trials
        self.capacity = capacity
        self.timeout = timeout
        self.warmup = warmup
        self.retry = retry
        self.store = store
        self.occupancy = np.zeros(trials, dtype=np.int64)
        # With a zero-retry policy nothing ever re-enters, so the
        # admission round equals the birth round and the retry count is
        # identically zero - a lone ``born`` plane suffices, every
        # failure is a first-attempt death that is only counted, and the
        # default-policy fast path does exactly PR 7's work.  With a
        # live retry policy the three per-request fields are packed into
        # one (trials, capacity, 3) array so the swap-remove and the
        # expiry compaction are each a single gather/scatter.
        self._plain = retry.budget == 0
        self._track = timeout is not None and not self._plain
        if self._track:
            self._buf = np.zeros((trials, capacity, 3), dtype=np.int64)
            self.born = self._buf[:, :, _F_BORN]
            self.admitted_at = self._buf[:, :, _F_ADMITTED]
            self.tries = self._buf[:, :, _F_TRIES]
        else:
            self._buf = None
            self.born = np.zeros((trials, capacity), dtype=np.int64)
        self._adm_state = admission.state(trials)
        # Expiry ring: per-trial counts of live buffer entries keyed by
        # admission round mod timeout.  An entry expires exactly when
        # the eviction cutoff reaches its admission round (end_round
        # runs every round), so one ring column names every victim of a
        # round: expiry-free rounds exit after an O(trials) check and
        # eviction scans only the trials that actually lose requests.
        self._ring = (
            np.zeros((trials, timeout), dtype=np.int64)
            if timeout is not None
            else None
        )
        # Delays are >= 1 and rounds are processed consecutively, so an
        # orbit entry is released exactly at its rejoin round.
        self._orbit = np.empty((4, 0), dtype=np.int64)
        self._trial_ids = np.arange(trials, dtype=np.int64)
        # This round's refused fresh arrivals are repeated out of these
        # (trial, born, tries) columns, one per trial.
        self._fresh = np.zeros((3, trials), dtype=np.int64)
        self._fresh[0] = self._trial_ids
        # (trial, born, tries) blocks failed this round, settled together.
        self._failed: list[np.ndarray] = []
        self._refused = 0
        self._slot_ids = np.arange(capacity, dtype=np.int64)
        self._round = 0
        self._retry_draws: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Round pipeline
    # ------------------------------------------------------------------
    def begin_round(
        self,
        round_index: int,
        fresh: np.ndarray,
        adm_draws: np.ndarray | None,
        retry_draws: np.ndarray | None,
    ) -> None:
        """Orbit release and admission; refusals wait for :meth:`end_round`."""
        self._round = round_index
        self._retry_draws = retry_draws
        store = self.store
        arrived = int(fresh.sum())
        store.arrivals += arrived
        store.attempts += arrived

        due = self._release(round_index)
        candidates = fresh
        if due is not None:
            n_due = np.bincount(due[0], minlength=self.trials)
            candidates = n_due + fresh
            store.attempts += due.shape[1]
        quota = self._adm_state.quota(
            self.occupancy, candidates, self.capacity, adm_draws
        )
        admitted = np.minimum(
            np.minimum(candidates, quota), self.capacity - self.occupancy
        )
        self._adm_state.commit(admitted)
        if self._ring is not None:
            self._ring[:, round_index % self.timeout] += admitted

        # Candidate order: rejoiners first, then fresh arrivals.
        admit_fresh = admitted
        if due is not None:
            admit_rejoin = np.minimum(n_due, admitted)
            ranks = _row_ranks(due[0], n_due)
            taken = ranks < admit_rejoin[due[0]]
            rows, born, tries = due[:, taken]
            slots = self.occupancy[rows] + ranks[taken]
            self.born[rows, slots] = born
            if self._track:
                self.admitted_at[rows, slots] = round_index
                self.tries[rows, slots] = tries
            self.occupancy += admit_rejoin
            admit_fresh = admitted - admit_rejoin
            if rows.size < taken.size:
                self._hold(due[:, ~taken])
        rows = self._trial_ids.repeat(admit_fresh)
        if rows.size:
            slots = self.occupancy[rows] + _row_ranks(rows, admit_fresh)
            if self._track:
                self._buf[rows, slots] = (round_index, round_index, 0)
            else:
                self.born[rows, slots] = round_index
            self.occupancy += admit_fresh
        if rows.size < arrived:
            if self._plain:
                store.dropped += arrived - rows.size
            else:
                self._fresh[1] = round_index
                self._hold(self._fresh.repeat(fresh - admit_fresh, axis=1))

    def complete(
        self, rows: np.ndarray, winner_draws: np.ndarray, round_index: int
    ) -> None:
        """Depart one uniformly-drawn winner per successful trial."""
        occupancy = self.occupancy[rows]
        winner = (winner_draws * occupancy).astype(np.int64)
        last = occupancy - 1
        if self._track:
            departed = self._buf[rows, winner]
            born = departed[:, _F_BORN]
            admitted = departed[:, _F_ADMITTED]
            self._buf[rows, winner] = self._buf[rows, last]
        else:
            born = self.born[rows, winner]
            admitted = born
            self.born[rows, winner] = self.born[rows, last]
        if self._ring is not None:
            self._ring[rows, admitted % self.timeout] -= 1
        self.occupancy[rows] = last
        self.store.record_many(round_index - born[born > self.warmup] + 1)

    def end_round(self, round_index: int) -> None:
        """Evict timed-out requests, then settle the round's failures."""
        if self.timeout is not None:
            self._expire(round_index)
        if self._failed:
            self._fail()

    def finish(self) -> None:
        self.store.in_flight += int(self.occupancy.sum())
        self.store.in_orbit += self._orbit.shape[1]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _hold(self, refused: np.ndarray) -> None:
        """Keep admission refusals for this round's failure pass."""
        self._failed.append(refused)
        self._refused += refused.shape[1]

    def _release(self, round_index: int) -> np.ndarray | None:
        """Due orbit entries as (trial, born, tries) columns, or None.

        Stable: by trial, then insertion order.
        """
        orbit = self._orbit
        if orbit.shape[1] == 0:
            return None
        due = orbit[0] == round_index
        if not due.any():
            return None
        self._orbit = orbit[:, ~due]
        released = orbit[1:, due]
        return released[:, released[0].argsort(kind="stable")]

    def _expire(self, round_index: int) -> None:
        """Evict the requests whose current buffer stay hit the timeout."""
        cutoff = round_index - self.timeout + 1
        if cutoff < 0:
            return
        n_expired = self._ring[:, cutoff % self.timeout]
        affected = n_expired.nonzero()[0]
        if affected.size == 0:
            return
        occ = self.occupancy[affected]
        width = int(occ.max())
        stamps = (self.admitted_at if self._track else self.born)[
            affected, :width
        ]
        live = self._slot_ids[None, :width] < occ[:, None]
        expired = live & (stamps == cutoff)
        local_rows, slots = expired.nonzero()
        # Expired entries are live ones, so the exclusive or keeps the rest.
        keep_local, keep_slots = (live ^ expired).nonzero()
        keep_counts = occ - n_expired[affected]
        keep_ranks = _row_ranks(keep_local, keep_counts)
        keep_rows = affected[keep_local]
        self.occupancy[affected] = keep_counts
        n_expired[:] = 0
        if not self._track:
            self.born[keep_rows, keep_ranks] = self.born[keep_rows, keep_slots]
            self.store.timed_out += slots.size
            return
        rows = affected[local_rows]
        victims = self._buf[rows, slots]
        self._buf[keep_rows, keep_ranks] = self._buf[keep_rows, keep_slots]
        failed = np.empty((3, rows.size), dtype=np.int64)
        failed[0] = rows
        failed[1] = victims[:, _F_BORN]
        failed[2] = victims[:, _F_TRIES]
        self._failed.append(failed)

    def _fail(self) -> None:
        """Resolve the round's failures through the retry policy.

        The held blocks are row-major each: surplus rejoiners, surplus
        fresh arrivals, then timeouts, so every trial's failures stand
        in candidate order, the first ``_refused`` of them refusals.
        """
        parts, refused = self._failed, self._refused
        self._failed, self._refused = [], 0
        failed = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        store = self.store
        allowed = self.retry.allows(failed[2])
        deaths = ~allowed
        if deaths.any():
            first = deaths & (failed[2] == 0)
            dropped = int(np.count_nonzero(first[:refused]))
            timed_out = int(np.count_nonzero(first[refused:]))
            store.dropped += dropped
            store.timed_out += timed_out
            store.abandoned += int(np.count_nonzero(deaths)) - dropped - timed_out
            failed = failed[:, allowed]
            if failed.shape[1] == 0:
                return
        store.retried += failed.shape[1]
        jitter_u = None
        if self.retry.needs_draws:
            if len(parts) > 1:
                failed = failed[:, failed[0].argsort(kind="stable")]
            rows = failed[0]
            ranks = _row_ranks(rows, np.bincount(rows, minlength=self.trials))
            jitter_u = weyl_uniforms(self._retry_draws[rows], ranks)
        failed[2] += 1
        rejoin = self._round + self.retry.delays(failed[2], jitter_u)
        self._orbit = np.concatenate(
            (self._orbit, np.concatenate((rejoin[None], failed))), axis=1
        )


class _ScalarLifecycle:
    """The oracle's request lifecycle: one trial, plain Python lists.

    An independent reimplementation of the contract `_BatchLifecycle`
    vectorizes - stable orbit/buffer orderings, rejoiners-before-fresh
    admission, swap-remove departures - sharing only the numeric policy
    kernels (quota, delays, Weyl jitter) so bit-identity rests on the
    lifecycle logic, not on floating-point coincidences.
    """

    def __init__(
        self,
        capacity: int,
        timeout: int | None,
        warmup: int,
        admission: AdmissionPolicy,
        retry: RetryPolicy,
        store: LatencyStore,
    ) -> None:
        self.capacity = capacity
        self.timeout = timeout
        self.warmup = warmup
        self.retry = retry
        self.store = store
        self.pending: list[tuple[int, int, int]] = []  # (born, admitted, tries)
        self.orbit: list[tuple[int, int, int]] = []  # (rejoin, born, tries)
        self._adm_state = admission.state(1)
        self._round = 0
        self._retry_draw = 0.0
        self._fail_rank = 0

    def begin_round(
        self,
        round_index: int,
        fresh: int,
        adm_draw: float | None,
        retry_draw: float | None,
    ) -> None:
        self._round = round_index
        self._retry_draw = retry_draw
        self._fail_rank = 0
        store = self.store
        store.arrivals += fresh

        due = [entry for entry in self.orbit if entry[0] <= round_index]
        self.orbit = [entry for entry in self.orbit if entry[0] > round_index]
        candidates = len(due) + fresh
        store.attempts += candidates
        quota = int(
            self._adm_state.quota(
                np.asarray([len(self.pending)], dtype=np.int64),
                np.asarray([candidates], dtype=np.int64),
                self.capacity,
                None if adm_draw is None else np.asarray([adm_draw]),
            )[0]
        )
        admitted = min(candidates, quota, self.capacity - len(self.pending))
        self._adm_state.commit(np.asarray([admitted], dtype=np.int64))

        admit_rejoin = min(len(due), admitted)
        for _, born, tries in due[:admit_rejoin]:
            self.pending.append((born, round_index, tries))
        admit_fresh = admitted - admit_rejoin
        for _ in range(admit_fresh):
            self.pending.append((round_index, round_index, 0))
        for _, born, tries in due[admit_rejoin:]:
            self._fail(born, tries, _FAIL_ADMISSION)
        for _ in range(fresh - admit_fresh):
            self._fail(round_index, 0, _FAIL_ADMISSION)

    def complete(self, winner_draw: float, round_index: int) -> None:
        winner = int(winner_draw * len(self.pending))
        born, _, _ = self.pending[winner]
        self.pending[winner] = self.pending[-1]
        self.pending.pop()
        if born > self.warmup:
            self.store.record(round_index - born + 1)

    def end_round(self, round_index: int) -> None:
        if self.timeout is None:
            return
        cutoff = round_index - self.timeout + 1
        expired = [entry for entry in self.pending if entry[1] <= cutoff]
        if not expired:
            return
        self.pending = [entry for entry in self.pending if entry[1] > cutoff]
        for born, _, tries in expired:
            self._fail(born, tries, _FAIL_TIMEOUT)

    def finish(self) -> None:
        self.store.in_flight += len(self.pending)
        self.store.in_orbit += len(self.orbit)

    def _fail(self, born: int, tries: int, kind: int) -> None:
        store = self.store
        if not self.retry.allows(tries):
            if tries > 0:
                store.abandoned += 1
            elif kind == _FAIL_ADMISSION:
                store.dropped += 1
            else:
                store.timed_out += 1
            return
        store.retried += 1
        jitter_u = None
        if self.retry.needs_draws:
            jitter_u = weyl_uniforms(
                self._retry_draw, np.asarray([self._fail_rank], dtype=np.int64)
            )
        self._fail_rank += 1
        delay = int(
            self.retry.delays(np.asarray([tries + 1], dtype=np.int64), jitter_u)[0]
        )
        self.orbit.append((self._round + delay, born, tries + 1))


def _round_draws(
    channel_draws: np.ndarray, column: int, layout: _Columns
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """(fault, admission, retry) draw vectors of one round (or None)."""
    fault = (
        channel_draws[:, column, layout.fault]
        if layout.fault is not None
        else None
    )
    admission = (
        channel_draws[:, column, layout.admission]
        if layout.admission is not None
        else None
    )
    retry = (
        channel_draws[:, column, layout.retry]
        if layout.retry is not None
        else None
    )
    return fault, admission, retry


class _OpenScheduleSource:
    """Open band source of schedule protocols: an epoch counter.

    Each trial's band edges are a lookup at its epoch position and
    occupancy in a (schedule position x occupancy ``0..capacity``)
    table built once by :func:`~repro.channel.batch._band_edges`.  A
    one-shot schedule that ran out restarts from the top (the scalar
    oracle's fresh-session-after-ScheduleExhausted path), so for either
    kind of schedule the table row is the epoch position modulo the
    schedule length.  A table past :data:`_BAND_TABLE_CELLS` cells is
    not built; the edges are then computed every round.
    """

    def __init__(
        self, protocol: UniformProtocol, trials: int, capacity: int
    ) -> None:
        schedule = protocol.batch_schedule()
        assert schedule is not None
        self._probabilities = np.asarray(schedule.probabilities, dtype=float)
        self._length = self._probabilities.size
        self._width = capacity + 1
        self._epoch_round = np.zeros(trials, dtype=np.int64)
        self._lo = self._hi = None
        if self._length * self._width <= _BAND_TABLE_CELLS:
            # One contiguous 1-D row per position, as the per-round call
            # receives its inputs, so numpy computes each power with the
            # same loop either way.
            occupancies = np.arange(self._width, dtype=float)
            rows = [
                _band_edges(np.full(self._width, p), occupancies)
                for p in self._probabilities
            ]
            self._lo = np.concatenate([lo for lo, _ in rows])
            self._hi = np.concatenate([hi for _, hi in rows])

    def edges(self, occupancy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        position = self._epoch_round % self._length
        if self._lo is None:
            return _band_edges(
                self._probabilities[position], occupancy.astype(float)
            )
        cell = position * self._width + occupancy
        return self._lo[cell], self._hi[cell]

    def restart(self, where: np.ndarray) -> None:
        self._epoch_round[where] = 0

    def advance(
        self, round_index: int, contended: np.ndarray, codes: np.ndarray
    ) -> None:
        self._epoch_round += contended


class _OpenHistorySource:
    """Open band source of history-driven protocols: trie nodes.

    Each trial carries a node id into the shared history-trie arena of
    :mod:`repro.channel.batch`, so probabilities are memoized per
    distinct history across trials, rounds and runs; a history whose
    one-shot schedule exhausted restarts at the empty history (the
    scalar oracle's fresh-session path - the root is known good).
    """

    def __init__(
        self,
        protocol: UniformProtocol,
        trials: int,
        channel: Channel,
        rounds: int,
    ) -> None:
        self._arena = arena = _arena_for_run()
        self._root = arena.root_for(protocol, ("open", next(_run_tokens)))
        if arena.exhausted[self._root]:
            raise ProtocolError(
                f"protocol {protocol.name!r} exhausts its schedule before the "
                "first round; it cannot serve an open system"
            )
        self._node = np.full(trials, self._root, dtype=np.int64)
        self._collision_detection = channel.collision_detection
        self._rounds = rounds

    def edges(self, occupancy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        arena = self._arena
        node = self._node
        if arena.any_exhausted:
            exhausted = arena.exhausted[node]
            if exhausted.any():
                node[exhausted] = self._root
        return _band_edges(arena.probability[node], occupancy.astype(float))

    def restart(self, where: np.ndarray) -> None:
        self._node[where] = self._root

    def advance(
        self, round_index: int, contended: np.ndarray, codes: np.ndarray
    ) -> None:
        """Move each contended trial to the child of its observation."""
        if not contended.any() or round_index == self._rounds:
            return
        if not self._collision_detection:
            observed = np.full(int(contended.sum()), OBS_QUIET, dtype=np.int64)
        else:
            observed = np.where(
                codes[contended] == FB_COLLISION, OBS_COLLISION, OBS_SILENCE
            )
        self._node[contended] = self._arena.descend(
            self._node[contended], observed
        )


def _run_open_batch(
    source: _OpenScheduleSource | _OpenHistorySource,
    processes: Sequence[ArrivalProcess],
    streams: Sequence[tuple[np.random.Generator, np.random.Generator]],
    model: ChannelModel | None,
    rounds: int,
    warmup: int,
    capacity: int,
    timeout: int | None,
    admission: AdmissionPolicy,
    retry: RetryPolicy,
    store: LatencyStore,
) -> None:
    """The one vectorized open loop, rounds across all trials at once.

    It owns the block pre-draw (two blocks per refill, into buffers
    allocated once), the request lifecycle, the band compare and the
    fault perturbation.  ``source`` supplies each trial's
    protocol side: ``edges(occupancy)``, this round's band edges,
    ``restart(where)`` at the empty history (after a delivered success,
    and whenever a backlog drains) and ``advance`` of the trials that
    contended without success, given the round's delivered feedback
    codes.
    """
    trials = len(processes)
    lifecycle = _BatchLifecycle(
        trials, capacity, timeout, warmup, admission, retry, store
    )
    fault_state = model.batch_state(trials) if model is not None else None
    layout = _column_layout(model, admission, retry)

    span = min(2 * _OPEN_BLOCK_ROUNDS, rounds)
    arrival_counts = np.empty((trials, span), dtype=np.int64)
    channel_draws = np.empty((trials, span, layout.total))
    for round_index in range(1, rounds + 1):
        column = (round_index - 1) % span
        if column == 0:
            _refill_blocks(
                processes, streams, round_index, rounds, layout.total,
                (arrival_counts, channel_draws),
            )
        fault_draws, adm_draws, retry_draws = _round_draws(
            channel_draws, column, layout
        )
        lifecycle.begin_round(
            round_index, arrival_counts[:, column], adm_draws, retry_draws
        )
        occupancy = lifecycle.occupancy

        codes = _trichotomy(channel_draws[:, column, 0], *source.edges(occupancy))
        if fault_state is not None:
            codes = fault_state.perturb(round_index, codes, fault_draws)

        busy = occupancy > 0
        success = (codes == FB_SUCCESS) & busy
        rows = success.nonzero()[0]
        if rows.size:
            lifecycle.complete(rows, channel_draws[rows, column, 1], round_index)
            source.restart(rows)
        # Contended non-success rows move on; a success row is a busy row,
        # so the exclusive or drops it.
        source.advance(round_index, busy ^ success, codes)

        lifecycle.end_round(round_index)
        source.restart(lifecycle.occupancy == 0)
    lifecycle.finish()


def _run_open_scalar(
    protocol: UniformProtocol,
    processes: Sequence[ArrivalProcess],
    streams: Sequence[tuple[np.random.Generator, np.random.Generator]],
    channel: Channel,
    model: ChannelModel | None,
    rounds: int,
    warmup: int,
    capacity: int,
    timeout: int | None,
    admission: AdmissionPolicy,
    retry: RetryPolicy,
    store: LatencyStore,
) -> None:
    """The per-trial reference loop: real sessions, identical streams.

    Probabilities come from live :class:`~repro.core.protocol.
    UniformSession` objects instead of schedule arrays or the memoized
    trie, and the request lifecycle runs on plain Python lists
    (:class:`_ScalarLifecycle`), but every random draw is consumed
    through the same :func:`_refill_blocks` contract (one-trial slices),
    so for deterministic protocols the resulting store is bit-identical
    to the vectorized engines'.
    """
    collision_detection = channel.collision_detection
    layout = _column_layout(model, admission, retry)
    for t in range(len(processes)):
        fault_state = model.batch_state(1) if model is not None else None
        lifecycle = _ScalarLifecycle(
            capacity, timeout, warmup, admission, retry, store
        )
        session = None
        arrival_counts = channel_draws = None
        for round_index in range(1, rounds + 1):
            column = (round_index - 1) % _OPEN_BLOCK_ROUNDS
            if column == 0:
                arrival_counts, channel_draws = _refill_blocks(
                    processes[t : t + 1], streams[t : t + 1], round_index,
                    rounds, layout.total,
                )
            fault_draws, adm_draws, retry_draws = _round_draws(
                channel_draws, column, layout
            )
            lifecycle.begin_round(
                round_index,
                int(arrival_counts[0, column]),
                None if adm_draws is None else float(adm_draws[0]),
                None if retry_draws is None else float(retry_draws[0]),
            )

            k = len(lifecycle.pending)
            if k == 0:
                code = FB_SILENCE
            else:
                if session is None:
                    session = protocol.session()
                try:
                    p = session.next_probability()
                except ScheduleExhausted:
                    session = protocol.session()
                    try:
                        p = session.next_probability()
                    except ScheduleExhausted:
                        raise ProtocolError(
                            f"protocol {protocol.name!r} exhausts its "
                            "schedule before the first round; it cannot "
                            "serve an open system"
                        ) from None
                u = float(channel_draws[0, column, 0])
                lo = (1.0 - p) ** k
                hi = lo + k * p * (1.0 - p) ** max(k - 1, 0)
                code = (
                    FB_SILENCE
                    if u < lo
                    else (FB_SUCCESS if u < hi else FB_COLLISION)
                )
            if fault_state is not None:
                code = int(
                    fault_state.perturb(
                        round_index,
                        np.asarray([code], dtype=np.int64),
                        fault_draws,
                    )[0]
                )

            if code == FB_SUCCESS and k > 0:
                lifecycle.complete(
                    float(channel_draws[0, column, 1]), round_index
                )
                session = None
            elif k > 0 and round_index < rounds:
                if not collision_detection:
                    session.observe(Observation.QUIET)
                elif code == FB_COLLISION:
                    session.observe(Observation.COLLISION)
                else:
                    session.observe(Observation.SILENCE)

            lifecycle.end_round(round_index)
            if not lifecycle.pending:
                session = None
        lifecycle.finish()


def run_open(
    protocol: UniformProtocol,
    arrivals: ArrivalProcess,
    *,
    channel: Channel,
    trials: int,
    rounds: int,
    warmup: int = 0,
    capacity: int = 256,
    timeout: int | None = None,
    retry: RetryPolicy | None = None,
    admission: AdmissionPolicy | None = None,
    seed: int = 2021,
    trial_offset: int = 0,
    batch: bool | None = None,
) -> OpenRunResult:
    """Serve ``arrivals`` with ``protocol`` on ``trials`` open channels.

    Each trial is one independent channel observed for ``rounds`` rounds:
    requests stream in from a private clone of ``arrivals``, the
    ``admission`` policy (default: the hard ``capacity`` cap only)
    gates entry to the service buffer, an optional ``timeout`` evicts
    requests after that many rounds in the buffer, and the ``retry``
    policy (default: give up, exactly PR 7's drop) decides whether
    refused or evicted requests back off in the orbit and rejoin.
    Completions whose request first arrived after round ``warmup`` are
    recorded in the returned :class:`~repro.opensys.latency.
    LatencyStore` with their full per-request sojourn.

    Two runs with the same ``seed`` and consecutive ``trial_offset``
    windows merge (``store.merge``) to exactly the store of one combined
    run - the sharding contract of the satellite seed-hygiene task.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if not 0 <= warmup < rounds:
        raise ValueError(
            f"warmup must be in [0, rounds), got {warmup} of {rounds}"
        )
    if capacity < 1:
        raise ValueError(
            f"capacity must be >= 1, got {capacity} (a zero-capacity "
            "buffer would silently drop every request)"
        )
    if timeout is not None and timeout < 1:
        raise ValueError(f"timeout must be >= 1 or None, got {timeout}")
    if trial_offset < 0:
        raise ValueError(f"trial_offset must be >= 0, got {trial_offset}")
    retry = retry if retry is not None else GiveUpPolicy()
    admission = admission if admission is not None else HardCapacityPolicy()
    if not isinstance(retry, RetryPolicy):
        raise ValueError(
            f"retry must be a RetryPolicy, got {type(retry).__name__}"
        )
    if not isinstance(admission, AdmissionPolicy):
        raise ValueError(
            f"admission must be an AdmissionPolicy, got "
            f"{type(admission).__name__}"
        )
    _check_channel(protocol.requires_collision_detection, channel)
    model = channel.active_model
    engine = route(protocol, batch, model=model, open_system=True).engine

    processes = [arrivals.clone() for _ in range(trials)]
    store = LatencyStore()
    if engine == ENGINE_OPEN_SCALAR:
        streams = _trial_streams(seed, trials, trial_offset)
        _run_open_scalar(
            protocol, processes, streams, channel, model, rounds, warmup,
            capacity, timeout, admission, retry, store,
        )
    else:
        source = (
            _OpenScheduleSource(protocol, trials, capacity)
            if engine == ENGINE_OPEN_SCHEDULE
            else _OpenHistorySource(protocol, trials, channel, rounds)
        )
        streams = _seeded_streams(seed, trials, trial_offset)
        _run_open_batch(
            source, processes, streams, model, rounds, warmup, capacity,
            timeout, admission, retry, store,
        )
    store.round_slots += trials * (rounds - warmup)
    return OpenRunResult(store=store, engine=engine)
