"""JSON-lines manifest mapping fingerprints to cached runs.

The index is the store's directory: one entry per scenario fingerprint
recording a human-readable summary, the seeds cached so far (seed →
blob key), creation / last-use timestamps, and a hit counter.  On disk
it is an append-only JSONL journal — every ``store`` and ``hit`` is one
line, and each batch of lines goes down as a single ``write`` on an
``O_APPEND`` descriptor, so concurrent appenders interleave whole
batches.  A writer that crashed mid-write leaves an unterminated tail;
the next append starts with a newline, which turns that tail into one
corrupt line and costs no later record.  :meth:`RunIndex.compact`
rewrites the journal as one ``entry`` snapshot per fingerprint.

The journal is the only source of truth.  The in-memory maps *follow*
it: :meth:`RunIndex.refresh` remembers the file's identity and the
byte offset applied so far, parses only the bytes appended since, and
starts over when the file was replaced (compaction), shrank, lost its
first line or vanished (``clear``).  Recording appends first and then
refreshes, so an index sees its own records and every other writer's
through the same path, and re-opening a store costs one pass over its
journal while keeping it open costs only the new lines.

Unreadable journal lines are skipped, mirroring the blob store's
stance: corruption downgrades to a cache miss, never an error.

All public methods are guarded by one :class:`threading.Lock`, so the
serving layer's request threads can record stores and hits against a
shared index without interleaving JSONL appends or corrupting the
in-memory maps.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["IndexEntry", "IndexStats", "RunIndex"]


def _encode(records: List[Dict[str, Any]]) -> bytes:
    """Journal lines for ``records``, each terminated by a newline."""
    return "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
        for r in records
    ).encode("ascii")


@dataclass
class IndexEntry:
    """All cached runs of one scenario fingerprint."""

    fingerprint: str
    scenario: Dict[str, Any] = field(default_factory=dict)
    seeds: Dict[int, str] = field(default_factory=dict)  # seed -> blob key
    created: float = 0.0
    last_used: float = 0.0
    hits: int = 0
    #: Cells computed fresh (every ``store`` journal event is one miss).
    misses: int = 0


@dataclass(frozen=True)
class IndexStats:
    """Aggregate counters over the whole manifest."""

    fingerprints: int
    runs: int
    hits: int
    misses: int = 0


class RunIndex:
    """In-memory view over an append-only JSONL manifest."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._entries: Dict[str, IndexEntry] = {}
        self._lock = threading.Lock()
        #: ``(st_dev, st_ino)`` of the journal the maps were built from.
        self._file_id: Optional[Tuple[int, int]] = None
        #: Bytes of that journal applied so far (always at a line end).
        self._offset = 0
        #: Its first line: an inode reused after ``clear`` shows here.
        self._head = b""
        self.refresh()

    # -- journal ----------------------------------------------------------

    def refresh(self) -> None:
        """Apply the journal lines appended since the last refresh."""
        with self._lock:
            self._refresh()

    def _refresh(self) -> None:
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            self._reset(None)
            return
        try:
            st = os.fstat(fd)
            if (
                (st.st_dev, st.st_ino) != self._file_id
                or st.st_size < self._offset
                or os.pread(fd, len(self._head), 0) != self._head
            ):
                self._reset((st.st_dev, st.st_ino))
            if st.st_size == self._offset:
                return
            data = os.pread(fd, st.st_size - self._offset, self._offset)
        finally:
            os.close(fd)
        end = data.rfind(b"\n") + 1  # an unterminated tail waits
        if not end:
            return
        if not self._offset:
            self._head = data[: data.index(b"\n") + 1]
        self._offset += end
        for line in data[:end].split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn or corrupt line: skip, don't fail
            if isinstance(record, dict):
                try:
                    self._apply(record)
                except (KeyError, TypeError, ValueError):
                    continue

    def _reset(self, file_id: Optional[Tuple[int, int]]) -> None:
        self._entries.clear()
        self._file_id = file_id
        self._offset = 0
        self._head = b""

    def _apply(self, record: Dict[str, Any]) -> None:
        kind = record.get("event")
        fingerprint = record.get("fingerprint")
        if not isinstance(fingerprint, str):
            return
        if kind == "store":
            seed, blob = int(record["seed"]), record["blob"]
            ts = float(record.get("ts", 0.0))
            entry = self._entries.setdefault(
                fingerprint, IndexEntry(fingerprint=fingerprint)
            )
            entry.scenario = record.get("scenario", entry.scenario)
            entry.seeds[seed] = blob
            entry.misses += 1  # a stored cell was computed fresh
            entry.created = entry.created or ts
            entry.last_used = max(entry.last_used, ts)
        elif kind == "hit":
            entry = self._entries.get(fingerprint)
            if entry is not None:
                entry.hits += 1
                entry.last_used = max(
                    entry.last_used, float(record.get("ts", 0.0))
                )
        elif kind == "entry":  # compacted snapshot
            self._entries[fingerprint] = IndexEntry(
                fingerprint=fingerprint,
                scenario=record.get("scenario", {}),
                seeds={
                    int(s): b for s, b in record.get("seeds", {}).items()
                },
                created=float(record.get("created", 0.0)),
                last_used=float(record.get("last_used", 0.0)),
                hits=int(record.get("hits", 0)),
                misses=int(record.get("misses", 0)),
            )

    def _append(self, records: List[Dict[str, Any]]) -> None:
        """Write ``records`` as one ``O_APPEND`` write, then refresh."""
        data = _encode(records)
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self.path, flags, 0o644)
        except FileNotFoundError:  # the store directory was removed
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, flags, 0o644)
        try:
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                data = b"\n" + data  # terminate a crashed writer's tail
            while data:  # one call on a regular file, barring disk-full
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        self._refresh()

    # -- recording --------------------------------------------------------

    def record_store(
        self,
        fingerprint: str,
        seed: int,
        blob: str,
        scenario: Dict[str, Any],
    ) -> None:
        record = {
            "event": "store",
            "fingerprint": fingerprint,
            "seed": int(seed),
            "blob": blob,
            "scenario": scenario,
            "ts": time.time(),
        }
        with self._lock:
            self._append([record])

    def record_hits(self, pairs: List[tuple]) -> None:
        """Record ``(fingerprint, seed)`` hits in one journal write."""
        now = time.time()
        records = [
            {"event": "hit", "fingerprint": fp, "seed": int(seed), "ts": now}
            for fp, seed in pairs
        ]
        if not records:
            return
        with self._lock:
            self._append(records)

    # -- queries ----------------------------------------------------------

    def lookup(self, fingerprint: str, seed: int) -> Optional[str]:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return None
            return entry.seeds.get(int(seed))

    def entries(self) -> List[IndexEntry]:
        with self._lock:
            return self._entries_snapshot()

    def _entries_snapshot(self) -> List[IndexEntry]:
        return sorted(self._entries.values(), key=lambda e: e.fingerprint)

    def referenced_blobs(self) -> Set[str]:
        with self._lock:
            return {
                blob
                for entry in self._entries.values()
                for blob in entry.seeds.values()
            }

    def stats(self) -> IndexStats:
        with self._lock:
            return IndexStats(
                fingerprints=len(self._entries),
                runs=sum(len(e.seeds) for e in self._entries.values()),
                hits=sum(e.hits for e in self._entries.values()),
                misses=sum(e.misses for e in self._entries.values()),
            )

    # -- maintenance ------------------------------------------------------

    def drop_blobs(self, dead: Set[str]) -> int:
        """Forget seeds whose blob is in ``dead``; return runs dropped."""
        dropped = 0
        with self._lock:
            for fingerprint in list(self._entries):
                entry = self._entries[fingerprint]
                for seed in [s for s, b in entry.seeds.items() if b in dead]:
                    del entry.seeds[seed]
                    dropped += 1
                if not entry.seeds:
                    del self._entries[fingerprint]
        return dropped

    def compact(self) -> None:
        """Rewrite the journal as one snapshot line per fingerprint."""
        with self._lock:
            self._refresh()
            data = _encode([
                {
                    "event": "entry",
                    "fingerprint": e.fingerprint,
                    "scenario": e.scenario,
                    "seeds": {str(s): b for s, b in sorted(e.seeds.items())},
                    "created": e.created,
                    "last_used": e.last_used,
                    "hits": e.hits,
                    "misses": e.misses,
                }
                for e in self._entries_snapshot()
            ])
            tmp = self.path.with_name(self.path.name + ".tmp")
            with tmp.open("wb") as fh:
                fh.write(data)
                st = os.fstat(fh.fileno())
            os.replace(tmp, self.path)
            # The new journal holds exactly the maps: follow it from its end.
            self._file_id = (st.st_dev, st.st_ino)
            self._offset = len(data)
            self._head = data[: data.find(b"\n") + 1]

    def clear(self) -> None:
        with self._lock:
            self.path.unlink(missing_ok=True)
            self._reset(None)
