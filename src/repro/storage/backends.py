"""Storage media for the durable state plane.

A backend is dumb on purpose: it persists an ordered list of WAL entries,
an append-only archive of entries moved out of the WAL, and one snapshot
document, all plain JSON-safe dicts (how it holds them is its own
business: the heap keeps a WAL-shaped entry as four columns' slots).
Everything with semantics — LSNs, compaction policy, which entries are
archived, plane dispatch — lives above it in :mod:`repro.storage.wal` /
:mod:`repro.storage.journal`, so swapping the medium (heap, JSONL
directory, eventually a real database) never touches recovery logic.
"""

from __future__ import annotations

import json
import os
from array import array
from itertools import islice
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional


class StorageError(Exception):
    """The medium rejected an operation (corrupt file, closed backend)."""


class StorageBackend:
    """Interface every storage medium implements.

    WAL region: ``append(entry)``, ``entries()`` and ``reset_wal(entries)``.
    It is append-only between compactions; ``reset_wal`` atomically
    replaces it (the compaction rewrite).

    Archive region: ``archive_append(entries, after)`` leaves the archive
    holding its first ``after`` entries followed by ``entries``.  Anything
    beyond ``after`` was appended by a snapshot that crashed before its
    document was saved, so no snapshot covers it and it is overwritten.
    ``archive_entries(count)`` iterates the first ``count`` entries,
    oldest first, read as they are consumed; fewer on the medium than a
    snapshot covers is a :class:`StorageError`, raised by the call.
    Otherwise the region is written once and then only read.

    Snapshot slot: ``save_snapshot(doc)`` and ``load_snapshot()`` (None
    when empty).  It holds at most one document and is atomically
    replaced on save.
    """

    def clear(self) -> None:
        """Wipe all three regions (tests / fresh deployments)."""
        self.reset_wal(())
        self.archive_append([], after=0)
        self.save_snapshot({})

    def close(self) -> None:
        """Release the medium; nothing to release in memory."""


def _missing(count: int, held: int) -> StorageError:
    return StorageError(f"archive holds {held} entries, "
                        f"the snapshot covers {count}")


#: the keys of a WAL-shaped entry, in :meth:`WalRecord.to_entry`'s order
_ROW_KEYS = ("lsn", "kind", "at", "data")

#: the LSNs the heap keeps as numbers
_INT64 = range(-2**63, 2**63)


class _Rows:
    """An ordered region of entries, kept as columns.

    A WAL-shaped entry — the keys of :data:`_ROW_KEYS` in that order, an
    int64 ``lsn``, a ``str`` kind and a float ``at`` — is one slot of
    each column: its lsn and its time as numbers, its kind and its data
    as they are.  Any other dict is kept whole in the data column, with
    ``None`` for its kind.  Reading builds the dict again.
    """

    __slots__ = ("lsn", "kind", "at", "data")

    def __init__(self) -> None:
        self.lsn = array("q")
        self.kind: List[Optional[str]] = []
        self.at = array("d")
        self.data: List[Any] = []

    def __len__(self) -> int:
        return len(self.kind)

    def append(self, entry: Dict) -> None:
        if tuple(entry) == _ROW_KEYS:
            lsn, kind, at, data = entry.values()
            if (type(lsn) is int and lsn in _INT64 and type(kind) is str
                    and type(at) is float):
                self.lsn.append(lsn)
                self.kind.append(kind)
                self.at.append(at)
                self.data.append(data)
                return
        self.lsn.append(0)
        self.kind.append(None)
        self.at.append(0.0)
        self.data.append(entry)

    def extend(self, entries: Iterable[Dict]) -> None:
        for entry in entries:
            self.append(entry)

    def entry(self, row: int) -> Dict:
        """The dict appended as ``row``."""
        kind = self.kind[row]
        if kind is None:
            return self.data[row]
        return {"lsn": self.lsn[row], "kind": kind, "at": self.at[row],
                "data": self.data[row]}

    def truncate(self, count: int) -> None:
        """Keep the first ``count`` entries."""
        del self.lsn[count:], self.kind[count:], self.at[count:], \
            self.data[count:]


class MemoryBackend(StorageBackend):
    """Durable-enough: a medium that outlives the server *object*.

    The deployment holds the backend and hands it to the replacement
    server on restart — modelling a disk that survives a process crash
    without paying real file I/O inside the simulator hot path (the
    default, so journaling costs no real file I/O unless a run asks for
    the JSONL backend).  It keeps entries as columns (:class:`_Rows`)
    and builds their dicts again when read: entries are written on every
    journaled mutation and read only at snapshot and recovery.
    """

    def __init__(self) -> None:
        self._wal = _Rows()
        self._archive = _Rows()
        self._snapshot: Optional[Dict] = None

    def append(self, entry: Dict) -> None:
        self._wal.append(entry)

    def entries(self) -> List[Dict]:
        return list(map(self._wal.entry, range(len(self._wal))))

    def reset_wal(self, entries: Iterable[Dict]) -> None:
        wal = _Rows()
        wal.extend(entries)
        self._wal = wal

    def archive_append(self, entries: List[Dict], after: int) -> None:
        archive = self._archive
        if len(archive) < after:
            raise _missing(after, len(archive))
        archive.truncate(after)
        archive.extend(entries)

    def archive_entries(self, count: int) -> Iterator[Dict]:
        if len(self._archive) < count:
            raise _missing(count, len(self._archive))
        return map(self._archive.entry, range(count))

    def save_snapshot(self, snapshot: Dict) -> None:
        self._snapshot = snapshot if snapshot else None

    def load_snapshot(self) -> Optional[Dict]:
        return self._snapshot


#: archive lines decoded per ``json.loads`` during recovery
_DECODE_CHUNK = 1024


def _dump_line(entry: Dict) -> str:
    return json.dumps(entry, separators=(",", ":")) + "\n"


def _dump_lines(entries: Iterable[Dict]) -> str:
    return "".join(map(_dump_line, entries))


class JsonlBackend(StorageBackend):
    """On-disk medium: ``<dir>/wal.jsonl`` + ``<dir>/archive.jsonl`` +
    ``<dir>/snapshot.json``.

    Appends go straight to the WAL file (one JSON object per line,
    flushed per append — the write-ahead contract); the archive file
    (created by the first snapshot that moves an entry) takes the same
    lines.  Snapshot saves and WAL compactions write to a temp file and
    ``os.replace`` it, so a crash mid-rewrite leaves the previous
    generation intact.  Opening the directory cuts both line files back
    to the end of their last complete line — a crash mid-append leaves a
    fragment that never committed, and appending behind it would glue
    the next record onto it — and then recovers whatever the last
    process persisted.
    """

    WAL_NAME = "wal.jsonl"
    ARCHIVE_NAME = "archive.jsonl"
    SNAPSHOT_NAME = "snapshot.json"

    def __init__(self, directory) -> None:
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.wal_path = self.dir / self.WAL_NAME
        self.archive_path = self.dir / self.ARCHIVE_NAME
        self.snapshot_path = self.dir / self.SNAPSHOT_NAME
        self._drop_torn_tail(self.wal_path)
        self._archive_len = self._drop_torn_tail(self.archive_path)
        self._fh = open(self.wal_path, "a", encoding="utf-8")

    @staticmethod
    def _drop_torn_tail(path: Path) -> int:
        """Truncate ``path`` after its last newline; returns the number
        of complete lines it holds (0 when it does not exist)."""
        if not path.exists():
            return 0
        with open(path, "rb+") as fh:
            data = fh.read()
            keep = data.rfind(b"\n") + 1
            if keep < len(data):
                fh.truncate(keep)
        return data.count(b"\n")

    def _check_open(self) -> None:
        if self._fh.closed:
            raise StorageError(f"backend {self.dir} is closed")

    def append(self, entry: Dict) -> None:
        self._check_open()
        self._fh.write(_dump_line(entry))
        self._fh.flush()

    def entries(self) -> List[Dict]:
        self._check_open()
        out: List[Dict] = []
        with open(self.wal_path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(json.loads(line))
                except ValueError:
                    # a corrupt line: everything before it is intact,
                    # nothing after it can be trusted to be in order
                    break
        return out

    def reset_wal(self, entries: Iterable[Dict]) -> None:
        self._fh.close()
        tmp = self.wal_path.with_suffix(".jsonl.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_dump_lines(entries))
        os.replace(tmp, self.wal_path)
        self._fh = open(self.wal_path, "a", encoding="utf-8")

    def archive_append(self, entries: List[Dict], after: int) -> None:
        self._check_open()
        if self._archive_len != after:
            self._cut_archive(after)
        if entries:
            with open(self.archive_path, "a", encoding="utf-8") as fh:
                fh.write(_dump_lines(entries))
            self._archive_len += len(entries)

    def _cut_archive(self, count: int) -> None:
        """Truncate the archive file to its first ``count`` lines."""
        if self._archive_len < count:
            raise _missing(count, self._archive_len)
        with open(self.archive_path, "rb+") as fh:
            for _ in range(count):
                fh.readline()
            fh.truncate(fh.tell())
        self._archive_len = count

    def archive_entries(self, count: int) -> Iterator[Dict]:
        self._check_open()
        if self._archive_len < count:
            raise _missing(count, self._archive_len)
        return self._read_archive(count) if count else iter(())

    def _read_archive(self, count: int) -> Iterator[Dict]:
        """Decode the archive's first ``count`` lines, a chunk of lines
        at a time: one ``json.loads`` per chunk shares each key string
        among the chunk's entries (a decoded dict is kept as a record's
        data), where one per line would make every record its own."""
        with open(self.archive_path, "r", encoding="utf-8") as fh:
            lines = islice(fh, count)
            first = 1
            while True:
                chunk = list(islice(lines, _DECODE_CHUNK))
                if not chunk:
                    return
                try:
                    entries = json.loads("[" + ",".join(chunk) + "]")
                except ValueError:
                    entries = [self._decode(line, first + offset)
                               for offset, line in enumerate(chunk)]
                del chunk  # the lines go before the entries are consumed
                yield from entries
                first += len(entries)

    def _decode(self, line: str, number: int) -> Dict:
        """One archive line; a corrupt one names the file and the line."""
        try:
            return json.loads(line)
        except ValueError as exc:
            raise StorageError(f"corrupt archive {self.archive_path} line "
                               f"{number}: {exc}") from exc

    def save_snapshot(self, snapshot: Dict) -> None:
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(snapshot, separators=(",", ":")))
        os.replace(tmp, self.snapshot_path)

    def load_snapshot(self) -> Optional[Dict]:
        if not self.snapshot_path.exists():
            return None
        with open(self.snapshot_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if not text.strip():
            return None
        doc = json.loads(text)
        return doc or None

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
