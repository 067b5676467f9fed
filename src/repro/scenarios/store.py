"""Durable sweep execution: content-addressed results and checkpoint journals.

Two persistence layers that make dense sweep grids survivable:

* :class:`ResultStore` - a **content-addressed result cache**.  Every
  spec hashes to a canonical key (:func:`spec_key`: SHA-256 over the
  sorted, separator-canonical JSON of ``spec.to_dict()`` plus the store
  schema version), and results live under that key as JSON on disk with
  an in-memory LRU front.  Because the key is derived from the complete
  serialized spec, *any* field change - seed, trials, a protocol
  parameter, the channel model, an open spec's retry/admission policy -
  produces a different key, while a JSON round-trip of the same spec
  produces the same key.  Bumping :data:`SCHEMA_VERSION` changes every
  key, so entries written by an older format miss cleanly instead of
  deserializing garbage.

* :class:`SweepJournal` - a **checkpointing sweep journal**.  An
  append-only JSONL file recording each completed sweep point (or whole
  fused group) as one line, flushed and fsynced per append, so a sweep
  killed at point 900 of 1000 resumes from its journal and re-executes
  only the missing 100.  The header line pins the journal to one
  specific sweep (a hash over all point keys); replaying against a
  different grid fails loudly instead of silently mixing results.  A
  torn final line (the crash happened mid-write) is detected and
  dropped, which is exactly what makes a whole-group append atomic: the
  group either replays completely or not at all.

Both layers store *serialized results*, so a replayed or cache-hit point
is bit-identical to a fresh run of the same spec - including its engine
label, which records what actually executed the first time.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from .spec import ScenarioError, spec_family

__all__ = [
    "SCHEMA_VERSION",
    "spec_key",
    "sweep_key",
    "StoreStats",
    "ResultStore",
    "SweepJournal",
]

#: Version of the on-disk entry format.  Part of every :func:`spec_key`,
#: so a format change invalidates the whole cache by construction - old
#: entries simply stop being addressable and miss cleanly.
SCHEMA_VERSION = 1


def _canonical_json(payload: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace, NaN rejected."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def spec_key(spec) -> str:
    """The content address of a scenario spec.

    Accepts both spec families (:func:`spec_family`); the family's kind
    is part of the hashed payload.  The key is a SHA-256 hex digest over
    the canonical JSON of ``spec.to_dict()`` - since
    ``from_dict(to_dict())`` is the identity for both spec families,
    serializing a spec to JSON and loading it back yields the same key,
    while changing any single field yields a different one.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": spec_family(spec).kind,
        "spec": spec.to_dict(),
    }
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def sweep_key(point_keys: Sequence[str]) -> str:
    """The identity of one expanded sweep: a hash over its point keys.

    Pins a journal to the exact grid that produced it - same base, same
    grid values, same expansion order.  Any change to any point (or to
    the point order) yields a different sweep key, and resuming refuses.
    """
    return hashlib.sha256(
        _canonical_json(list(point_keys)).encode("utf-8")
    ).hexdigest()


@dataclass
class StoreStats:
    """Hit/miss accounting for one :class:`ResultStore` instance."""

    hits: int = 0
    memory_hits: int = 0
    misses: int = 0
    puts: int = 0


class ResultStore:
    """Content-addressed scenario results: JSON on disk, LRU in memory.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk layer (created on first write).
        ``None`` keeps the store memory-only - useful for tests and for
        sharing results within one process without touching disk.
    memory_items:
        Capacity of the in-memory LRU front (0 disables it).

    Entries are written atomically (temp file + ``os.replace``) under
    ``<cache_dir>/<key[:2]>/<key>.json`` so a crash mid-write can never
    leave a half-written entry addressable.  Reads validate the entry's
    recorded schema and key; anything malformed, truncated or
    schema-stale is a clean miss.  Results handed out are the canonical
    deserialized objects; callers treat them as read-only, exactly like
    any other :class:`~repro.scenarios.runner.ScenarioResult`.
    """

    def __init__(
        self, cache_dir: str | os.PathLike | None = None, *, memory_items: int = 512
    ) -> None:
        if memory_items < 0:
            raise ScenarioError(
                f"memory_items must be >= 0, got {memory_items}"
            )
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.memory_items = memory_items
        self._memory: OrderedDict[str, object] = OrderedDict()
        self.stats = StoreStats()

    @classmethod
    def coerce(
        cls, cache: "ResultStore | str | os.PathLike | None"
    ) -> "ResultStore | None":
        """Accept a store instance, a cache directory path, or ``None``."""
        if cache is None or isinstance(cache, cls):
            return cache
        if isinstance(cache, (str, os.PathLike)):
            return cls(cache_dir=cache)
        raise ScenarioError(
            f"cache must be a ResultStore, a directory path or None, got "
            f"{type(cache).__name__}"
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / key[:2] / f"{key}.json"

    def _remember(self, key: str, result: object) -> None:
        if self.memory_items == 0:
            return
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_items:
            self._memory.popitem(last=False)

    def _load_disk(self, key: str, load: Callable) -> object | None:
        path = self._entry_path(key)
        if path is None or not path.is_file():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None  # truncated or unreadable: a clean miss
        if not isinstance(payload, Mapping):
            return None
        if payload.get("schema") != SCHEMA_VERSION or payload.get("key") != key:
            return None  # stale format (or a file moved under a wrong name)
        try:
            return load(payload["result"])
        except (KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def get(self, spec, *, key: str | None = None):
        """The stored result for ``spec``, or ``None`` on a miss."""
        if key is None:
            key = spec_key(spec)
        if key in self._memory:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return self._memory[key]
        result = self._load_disk(key, spec_family(spec).load)
        if result is None:
            self.stats.misses += 1
            return None
        self._remember(key, result)
        self.stats.hits += 1
        return result

    def put(
        self, spec, result, *, key: str | None = None, result_dict: dict | None = None
    ) -> str:
        """Store ``result`` under ``spec``'s content address; returns the key.

        ``result_dict`` is ``result.to_dict()`` where the caller already
        made it (a checkpoint that journals the result too).
        """
        if key is None:
            key = spec_key(spec)
        self._remember(key, result)
        self.stats.puts += 1
        path = self._entry_path(key)
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = {
                "schema": SCHEMA_VERSION,
                "key": key,
                "result": result.to_dict() if result_dict is None else result_dict,
            }
            # One C-encoder call: json.dump would take the pure-Python one.
            text = json.dumps(payload)
            # Atomic publish: a reader either sees the whole entry or no
            # entry, never a torn write.
            handle, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(handle, "w") as stream:
                    stream.write(text)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        return key


class SweepJournal:
    """Append-only checkpoint log for one sweep execution.

    Layout: JSON lines.  The first line is a header pinning the journal
    to a specific sweep; every following line is one atomic checkpoint
    holding one or more completed points (a fused group checkpoints as a
    single line, so the group replays all-or-nothing)::

        {"kind": "header", "schema": 1, "sweep": <sweep_key>, "points": N}
        {"kind": "checkpoint", "entries": [
            {"index": 3, "key": <spec_key>, "result": {...}}, ...]}

    Appends write one complete line, then flush + fsync, so a completed
    checkpoint survives the process dying immediately after.  A crash
    *during* the write leaves a torn final line, which replay detects
    and drops - the affected points simply re-execute.
    """

    SCHEMA = 1

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        sweep: str,
        points: int,
        point_keys: Sequence[str],
    ) -> None:
        self.path = Path(path)
        self.sweep = sweep
        self.points = points
        self._point_keys = list(point_keys)
        self.replayed: dict[int, object] = {}
        existing = self._read_lines()
        if existing:
            self._replay(existing)
            self._stream = open(self.path, "a")
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(self.path, "w")
            self._write_line(
                {
                    "kind": "header",
                    "schema": self.SCHEMA,
                    "sweep": self.sweep,
                    "points": self.points,
                }
            )

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _read_lines(self) -> list[str]:
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return []
        return [line for line in text.splitlines() if line.strip()]

    def _replay(self, lines: list[str]) -> None:
        parsed: list[tuple[int, Mapping]] = []
        for position, line in enumerate(lines):
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if position == len(lines) - 1:
                    # Torn final line: the previous run died mid-append.
                    # Its points re-execute; everything before it stands.
                    continue
                raise ScenarioError(
                    f"journal {self.path} is corrupt at line {position + 1} "
                    "(not valid JSON and not the final line)"
                ) from None
            if not isinstance(record, Mapping):
                raise ScenarioError(
                    f"journal {self.path} line {position + 1} is not a mapping"
                )
            parsed.append((position + 1, record))
        if not parsed:
            return
        header = parsed[0][1]
        if header.get("kind") != "header":
            raise ScenarioError(
                f"journal {self.path} has no header line; refusing to resume"
            )
        if header.get("schema") != self.SCHEMA:
            raise ScenarioError(
                f"journal {self.path} has schema {header.get('schema')!r}; "
                f"this build writes schema {self.SCHEMA} - delete the "
                "journal to start fresh"
            )
        if header.get("sweep") != self.sweep or header.get("points") != self.points:
            raise ScenarioError(
                f"journal {self.path} belongs to a different sweep "
                "(base spec, grid values or expansion order changed); "
                "delete it or pass a fresh journal path to start over"
            )
        for line, record in parsed[1:]:
            if record.get("kind") != "checkpoint":
                raise ScenarioError(
                    f"journal {self.path} contains an unknown record kind "
                    f"{record.get('kind')!r}"
                )
            entries = record.get("entries", [])
            if not isinstance(entries, list):
                raise ScenarioError(
                    f"journal {self.path} line {line}: 'entries' must be a list"
                )
            for entry in entries:
                self._replay_entry(entry, line)

    def _replay_entry(self, entry: object, line: int) -> None:
        where = f"journal {self.path} line {line}"
        index = entry.get("index") if isinstance(entry, Mapping) else None
        if not isinstance(index, int) or isinstance(index, bool):
            raise ScenarioError(
                f"{where}: each entry must be a mapping with an integer "
                f"'index', got {entry!r}"
            )
        if not 0 <= index < self.points:
            raise ScenarioError(
                f"journal {self.path} references point {index}, "
                f"outside this sweep's {self.points} point(s)"
            )
        if entry.get("key") != self._point_keys[index]:
            raise ScenarioError(
                f"journal {self.path} entry for point {index} has a "
                "mismatched spec key; the grid changed under the "
                "journal - delete it to start over"
            )
        try:
            payload = entry["result"]
            family = spec_family(payload["spec"])
            self.replayed[index] = family.load(payload)
        except (KeyError, TypeError, ValueError) as error:
            raise ScenarioError(
                f"{where}: unreadable result for point {index}: {error!r}"
            ) from None

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def _write_line(self, record: Mapping) -> None:
        self._stream.write(json.dumps(record) + "\n")
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def append(self, entries: Sequence[tuple[int, dict]]) -> None:
        """Atomically checkpoint completed points.

        ``entries`` is ``[(point_index, result_dict), ...]`` - one point
        from a serial executor, a whole group from the fused executor.
        The checkpoint is one journal line: it replays all-or-nothing.
        """
        if not entries:
            return
        self._write_line(
            {
                "kind": "checkpoint",
                "entries": [
                    {
                        "index": index,
                        "key": self._point_keys[index],
                        "result": result_dict,
                    }
                    for index, result_dict in entries
                ],
            }
        )

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
