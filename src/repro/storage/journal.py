"""The journal façade the server's stateful planes sit on.

One :class:`StateJournal` per server.  Each plane registers three hooks:

- ``snapshot()`` → a JSON-safe document of the plane's full state,
- ``restore(state)`` → rebuild the plane from such a document,
- ``apply(event, data, at)`` → re-apply one journaled mutation.

A plane that is an append-only log — its journaled records *are* its
state — registers ``apply`` alone and is **archived** instead: a snapshot
moves its covered records from the WAL to the backend's archive region
once, rather than re-serializing the ever-growing log into every snapshot
document, and recovery applies them from there.

Mutations are journaled as ``"<plane>.<event>"`` records at the plane's
public-API choke points; during :meth:`recover` the ``recovering`` flag
is up, so those same code paths replay without re-journaling (and
without side-effect notifications the planes choose to suppress).

Snapshot cadence: every ``snapshot_every`` appends the journal
serializes every snapshotted plane and compacts the WAL, bounding both
recovery replay length and the WAL's footprint; the cost is proportional
to the appends since the previous snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.storage.backends import StorageBackend, StorageError
from repro.storage.wal import WalRecord, WriteAheadLog

#: default appends between automatic snapshots
DEFAULT_SNAPSHOT_EVERY = 1000


@dataclass
class RecoveryReport:
    """What one :meth:`StateJournal.recover` rebuilt."""

    snapshot_lsn: int = 0
    last_lsn: int = 0
    #: records applied from the archive region (covered by the snapshot)
    archived: int = 0
    #: records replayed from the WAL tail (after the snapshot)
    replayed: int = 0
    #: WAL-tail records replayed per plane name
    planes: Dict[str, int] = field(default_factory=dict)
    #: real (wall) milliseconds recovery took — host time, read by the
    #: ``crash_recovery`` benchmark and never recorded by the simulation
    wall_ms: float = 0.0


class _Plane:
    __slots__ = ("snapshot", "restore", "apply")

    def __init__(self, snapshot, restore, apply):
        self.snapshot = snapshot
        self.restore = restore
        self.apply = apply


class StateJournal:
    """WAL + snapshots + plane dispatch for one server."""

    def __init__(self, backend: StorageBackend, *,
                 clock: Optional[Callable[[], float]] = None,
                 snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
                 metrics=None) -> None:
        self.wal = WriteAheadLog(backend)
        self.clock = clock or (lambda: 0.0)
        #: 0 disables automatic snapshots (explicit take_snapshot only)
        self.snapshot_every = snapshot_every
        self.metrics = metrics
        self.recovering = False
        self._planes: Dict[str, _Plane] = {}
        self._since_snapshot = 0

    def register_plane(self, name: str, *, apply, snapshot=None,
                       restore=None) -> None:
        """Wire one stateful plane's snapshot/restore/apply hooks; with
        ``apply`` alone the plane is archived, not snapshotted."""
        if (snapshot is None) != (restore is None):
            raise ValueError(f"plane {name!r}: snapshot and restore hooks "
                             "come together or not at all")
        self._planes[name] = _Plane(snapshot, restore, apply)

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, n)

    # -- write path -----------------------------------------------------
    def append(self, kind: str, data: Dict) -> Optional[WalRecord]:
        """Journal one mutation; no-op while recovering (replay must not
        re-journal the history it is reading)."""
        if self.recovering:
            return None
        record = self.wal.append(kind, data, at=self.clock())
        self._count("wal_appends")
        self._since_snapshot += 1
        if self.snapshot_every and self._since_snapshot >= self.snapshot_every:
            self.take_snapshot()
        return record

    def take_snapshot(self) -> int:
        """Serialize every snapshotted plane, archive the others' covered
        records, persist, compact; returns records compacted away."""
        state = {name: plane.snapshot()
                 for name, plane in self._planes.items()
                 if plane.snapshot is not None}
        compacted = self.wal.write_snapshot(
            state, self._planes.keys() - state.keys())
        self._count("snapshots")
        self._count("records_compacted", compacted)
        self._since_snapshot = 0
        return compacted

    # -- recovery -------------------------------------------------------
    def _apply(self, record: WalRecord) -> Optional[str]:
        """Re-apply one record; returns its plane's name, or None when no
        such plane is registered."""
        name, _, event = record.kind.partition(".")
        plane = self._planes.get(name)
        if plane is None:
            return None
        plane.apply(event, record.data, record.at)
        return name

    def recover(self) -> RecoveryReport:
        """Rebuild every registered plane: restore the snapshot, apply
        the archive it covers, then replay the WAL tail through the
        planes' apply hooks.  Archived planes go before the tail because
        their records depend on no other plane's state."""
        t0 = time.perf_counter()
        report = RecoveryReport(snapshot_lsn=self.wal.snapshot_lsn,
                                last_lsn=self.wal.last_lsn)
        self.recovering = True
        try:
            state = self.wal.snapshot_state() or {}
            for name in state:
                plane = self._planes.get(name)
                if plane is None or plane.restore is None:
                    raise StorageError(
                        f"snapshot holds state for plane {name!r}, which "
                        "has no restore hook here (an unregistered plane, "
                        "or a snapshot written before that plane was "
                        "archived)")
            for name, plane in self._planes.items():
                if name in state:
                    plane.restore(state[name])
            for record in self.wal.archived():
                if self._apply(record) is None:
                    raise StorageError(
                        f"archived record {record.lsn} ({record.kind}) "
                        "belongs to a plane that is not registered")
                report.archived += 1
            for record in self.wal.tail():
                name = self._apply(record)
                if name is None:
                    continue  # a plane this deployment doesn't run
                report.replayed += 1
                report.planes[name] = report.planes.get(name, 0) + 1
        finally:
            self.recovering = False
        report.wall_ms = (time.perf_counter() - t0) * 1e3
        self._count("recoveries")
        self._count("records_replayed", report.replayed)
        return report


class NullJournal:
    """API-compatible no-op: standalone components journal into the void,
    so the hot path never branches on ``journal is None``."""

    recovering = False
    snapshot_every = 0
    metrics = None

    def register_plane(self, name, *, apply, snapshot=None,
                       restore=None) -> None:
        pass

    def append(self, kind, data):
        return None

    def take_snapshot(self) -> int:
        return 0

    def recover(self) -> RecoveryReport:
        return RecoveryReport()


#: the shared no-op instance (stateless, safe to share)
NULL_JOURNAL = NullJournal()
