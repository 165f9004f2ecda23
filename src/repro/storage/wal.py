"""The write-ahead log: LSN-stamped records + snapshot/compaction.

A :class:`WriteAheadLog` wraps one :class:`~repro.storage.backends.
StorageBackend` and owns the ordering invariants the medium doesn't:

- every record carries a monotonically increasing **LSN**, resumed from
  whatever the backend already holds (reopening a JSONL directory
  continues the sequence, it doesn't restart it);
- the snapshot document records the LSN it covers and how many archive
  entries it covers, so recovery is always ``restore(snapshot.state)``,
  then ``archived()``, then ``replay(tail after snapshot.lsn)``;
- :meth:`write_snapshot` **compacts**: records at or below the new
  snapshot LSN leave the WAL — those of an archived plane move to the
  backend's archive region as they are, the rest (already folded into
  ``state``) are dropped.

One snapshot writes archive → snapshot document → WAL, in that order.  A
crash after the first step leaves archive entries no document covers:
they are still in the WAL, are replayed from there, and are overwritten
by the next snapshot.  A crash after the second leaves covered records in
the WAL: :meth:`tail` skips them and the next snapshot drops them without
archiving them twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Dict, Iterator, List, Optional

from repro.storage.backends import StorageBackend


@dataclass(frozen=True, init=False)
class WalRecord:
    """One journaled mutation.

    ``__init__`` is written out, as :class:`repro.core.database.Record`'s
    is, so a profile of the append path names it apart from every other
    dataclass's generated ``("<string>", 2, "__init__")``.
    """

    lsn: int
    kind: str      # "plane.event", e.g. "db.insert", "locks.acquire"
    at: float      # virtual time of the mutation
    data: Dict

    def __init__(self, lsn: int, kind: str, at: float, data: Dict) -> None:
        object.__setattr__(self, "lsn", lsn)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "at", at)
        object.__setattr__(self, "data", data)

    def to_entry(self) -> Dict:
        return {"lsn": self.lsn, "kind": self.kind, "at": self.at,
                "data": self.data}

    @classmethod
    def from_entry(cls, entry: Dict) -> "WalRecord":
        return cls(lsn=entry["lsn"], kind=entry["kind"],
                   at=entry.get("at", 0.0), data=entry.get("data", {}))


class WriteAheadLog:
    """Append-only log with one covering snapshot, over any backend."""

    def __init__(self, backend: StorageBackend) -> None:
        self.backend = backend
        doc = backend.load_snapshot() or {}
        self._snapshot_lsn = int(doc.get("lsn", 0))
        self._archived = int(doc.get("archived", 0))
        self._snapshot_state = doc.get("state")
        last = self._snapshot_lsn
        for entry in backend.entries():
            last = max(last, int(entry.get("lsn", 0)))
        self._lsn = last

    # -- write path -----------------------------------------------------
    def append(self, kind: str, data: Dict, at: float = 0.0) -> WalRecord:
        self._lsn += 1
        record = WalRecord(self._lsn, kind, at, data)
        self.backend.append(record.to_entry())
        return record

    def write_snapshot(self, state: Dict,
                       archive_planes: Collection[str] = ()) -> int:
        """Persist ``state`` as covering everything up to the last LSN and
        compact the WAL down to the uncovered tail; newly covered records
        of ``archive_planes`` move to the archive instead of into
        ``state``.  Returns the number of records that left the WAL."""
        lsn, covered = self._lsn, self._snapshot_lsn
        entries = self.backend.entries()
        keep, moved = [], []
        for entry in entries:
            entry_lsn = int(entry.get("lsn", 0))
            if entry_lsn > lsn:
                keep.append(entry)
            elif (entry_lsn > covered and
                  entry.get("kind", "").partition(".")[0] in archive_planes):
                moved.append(entry)
        self.backend.archive_append(moved, after=self._archived)
        archived = self._archived + len(moved)
        self.backend.save_snapshot({"lsn": lsn, "archived": archived,
                                    "state": state})
        self.backend.reset_wal(keep)
        self._snapshot_lsn = lsn
        self._archived = archived
        self._snapshot_state = state
        return len(entries) - len(keep)

    # -- read path ------------------------------------------------------
    def tail(self) -> List[WalRecord]:
        """Records strictly after the snapshot."""
        return [WalRecord.from_entry(e) for e in self.backend.entries()
                if int(e.get("lsn", 0)) > self._snapshot_lsn]

    def archived(self) -> Iterator[WalRecord]:
        """The archived records the snapshot covers, oldest first, each
        decoded as it is consumed."""
        return map(WalRecord.from_entry,
                   self.backend.archive_entries(self._archived))

    def snapshot_state(self) -> Optional[Dict]:
        return self._snapshot_state

    @property
    def last_lsn(self) -> int:
        return self._lsn

    @property
    def snapshot_lsn(self) -> int:
        return self._snapshot_lsn
