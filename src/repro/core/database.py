"""A miniature record store — the reproduction's "Relational Database".

§6.3: "The current implementation of DISCOVER avoids these issues by using
Relational Databases to store all the data generated in the form of
records ... the local server creates the output files or the records under
the ownership of the user who requested that data", while periodic
application data is owned by the application's owner and readable by every
user on the application's ACL.

We keep exactly that model: named tables of append-only records with an
``owner`` and a ``readers`` set enforced on query.

When wired to a :class:`~repro.storage.StateJournal`, every insert is
journaled as a ``"db.insert"`` record.  The tables are append-only, so
those records are the store's whole state: it registers as an archived
plane (no snapshot document), and a restarted server rebuilds it by
re-applying the journal's archive region and then the WAL tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Tuple)

from repro.storage import NULL_JOURNAL


class _Sequence:
    """A record-id counter that can skip forward during recovery."""

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def take(self) -> int:
        n = self._next
        self._next += 1
        return n

    def advance_past(self, n: int) -> None:
        """Never hand out an id at or below ``n`` again."""
        if n >= self._next:
            self._next = n + 1


_record_seq = _Sequence(1)

#: an interning table of reader sets: each set → itself, sorted as a list
ReaderSets = Dict[FrozenSet[str], Tuple[FrozenSet[str], List[str]]]


@dataclass(init=False)
class Record:
    """One stored row.

    A record has no per-instance ``__dict__`` (``__slots__``) and its
    ``data`` is the one copy :meth:`Table.insert` made of the caller's
    dict, the same dict its ``db.insert`` journal payload holds (a
    restored record's is the payload's as recovery decoded it): nothing
    mutates either after the insert.  ``readers`` is a ``frozenset``
    interned per :class:`Database`, so records with equal reader sets
    share one.

    ``__init__`` is written out because it runs once per insert: a
    profile keys a function by (file, line, name), every generated
    dataclass ``__init__`` is ``("<string>", 2, "__init__")``, and
    ``pstats`` keeps only one of those, so a generated one here would
    merge with :class:`~repro.storage.wal.WalRecord`'s and which survives
    would follow the code objects' addresses.
    """

    __slots__ = ("record_id", "owner", "created_at", "data", "readers")

    record_id: int
    owner: str
    created_at: float
    data: dict
    readers: FrozenSet[str]

    def __init__(self, record_id: int, owner: str, created_at: float,
                 data: dict, readers: FrozenSet[str]) -> None:
        self.record_id = record_id
        self.owner = owner
        self.created_at = created_at
        self.data = data
        self.readers = readers

    def readable_by(self, user: str) -> bool:
        """Owners always read their records; others need reader rights."""
        return user == self.owner or user in self.readers or "*" in self.readers


class Table:
    """An append-only table of records.

    ``reader_sets`` interns reader sets (each ``frozenset`` → itself and
    its sorted list, the journal's form); a :class:`Database` hands all
    its tables one.
    """

    def __init__(self, name: str, journal=NULL_JOURNAL,
                 reader_sets: Optional[ReaderSets] = None) -> None:
        self.name = name
        self.journal = journal
        self._reader_sets = {} if reader_sets is None else reader_sets
        self._records: List[Record] = []

    def _interned(self, readers: Optional[Iterable[str]]
                  ) -> Tuple[FrozenSet[str], List[str]]:
        key = frozenset(readers or ())
        pair = self._reader_sets.get(key)
        if pair is None:
            pair = self._reader_sets[key] = (key, sorted(key))
        return pair

    def insert(self, owner: str, data: dict, created_at: float,
               readers: Optional[Iterable[str]] = None) -> Record:
        readers, listed = self._interned(readers)
        data = dict(data)
        rec = Record(_record_seq.take(), owner, created_at, data, readers)
        self._records.append(rec)
        self.journal.append("db.insert", {
            "table": self.name, "record_id": rec.record_id,
            "owner": owner, "created_at": created_at,
            "data": data, "readers": listed})
        return rec

    def restore(self, record_id: int, owner: str, data: dict,
                created_at: float,
                readers: Optional[Iterable[str]] = None) -> Record:
        """Re-insert a journaled record under its original id; it adopts
        ``data``, its journal payload's dict."""
        rec = Record(record_id, owner, created_at, data,
                     self._interned(readers)[0])
        self._records.append(rec)
        _record_seq.advance_past(record_id)
        return rec

    def select(self, user: str,
               predicate: Optional[Callable[[Record], bool]] = None,
               limit: Optional[int] = None) -> List[Record]:
        """Records readable by ``user`` matching ``predicate`` (in order)."""
        out: List[Record] = []
        if limit is not None and limit <= 0:
            return out
        for rec in self._records:
            if not rec.readable_by(user):
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
            if limit is not None and len(out) >= limit:
                break
        return out

    def tail(self, user: str, n: int,
             predicate: Optional[Callable[[Record], bool]] = None) -> List[Record]:
        """The last ``n`` readable records matching ``predicate``."""
        if n <= 0:
            return []
        out = [r for r in self._records
               if r.readable_by(user)
               and (predicate is None or predicate(r))]
        return out[-n:]

    def count(self, predicate: Optional[Callable[[Record], bool]] = None) -> int:
        """How many records the table holds, regardless of ownership.

        A bookkeeping query (no ACL filter) for components that own the
        table's contents — counting is not reading record data.
        """
        if predicate is None:
            return len(self._records)
        return sum(1 for r in self._records if predicate(r))

    def __len__(self) -> int:
        return len(self._records)


class Database:
    """Named tables for one server."""

    def __init__(self, journal=NULL_JOURNAL) -> None:
        self.journal = journal
        self._tables: Dict[str, Table] = {}
        self._reader_sets: ReaderSets = {}

    def table(self, name: str) -> Table:
        """Get (creating on first use) a table."""
        tbl = self._tables.get(name)
        if tbl is None:
            tbl = self._tables[name] = Table(name, journal=self.journal,
                                             reader_sets=self._reader_sets)
        return tbl

    # -- durable state plane hook ---------------------------------------
    def apply_event(self, event: str, data: dict, at: float) -> None:
        """Replay one journaled mutation (archive or WAL tail, during
        recovery)."""
        if event == "insert":
            self.table(data["table"]).restore(
                data["record_id"], data["owner"], data["data"],
                data["created_at"], data.get("readers"))
