"""The journal façade the server's stateful planes sit on.

One :class:`StateJournal` per server.  Each plane registers three hooks:

- ``snapshot()`` → a JSON-safe document of the plane's full state,
- ``restore(state)`` → rebuild the plane from such a document,
- ``apply(event, data, at)`` → re-apply one journaled mutation.

Mutations are journaled as ``"<plane>.<event>"`` records at the plane's
public-API choke points; during :meth:`recover` the ``recovering`` flag
is up, so those same code paths replay without re-journaling (and
without side-effect notifications the planes choose to suppress).

Snapshot cadence: every ``snapshot_every`` appends the journal
serializes every plane and compacts the WAL, bounding both recovery
replay length and the WAL's footprint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.storage.backends import StorageBackend
from repro.storage.wal import WalRecord, WriteAheadLog

#: default appends between automatic snapshots
DEFAULT_SNAPSHOT_EVERY = 1000


@dataclass
class RecoveryReport:
    """What one :meth:`StateJournal.recover` rebuilt."""

    snapshot_lsn: int = 0
    last_lsn: int = 0
    replayed: int = 0
    #: records replayed per plane name
    planes: Dict[str, int] = field(default_factory=dict)
    #: real (wall) milliseconds recovery took — non-deterministic,
    #: reported for the E12 recovery-time table, never asserted exactly
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
                 metrics=None, timeseries=None) -> None:
        self.wal = WriteAheadLog(backend)
        self.clock = clock or (lambda: 0.0)
        #: 0 disables automatic snapshots (explicit take_snapshot only)
        self.snapshot_every = snapshot_every
        self.metrics = metrics
        #: optional TimeSeriesRegistry sink: WAL append wall-clock cost
        #: lands in a ``storage.wal_append_us`` histogram (real
        #: microseconds — telemetry, never asserted)
        self.timeseries = timeseries
        self.recovering = False
        self._planes: Dict[str, _Plane] = {}
        self._since_snapshot = 0

    @property
    def backend(self) -> StorageBackend:
        return self.wal.backend

    def register_plane(self, name: str, *, snapshot, restore, apply) -> None:
        """Wire one stateful plane's snapshot/restore/apply hooks."""
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
        ts = self.timeseries
        t0 = time.perf_counter() if ts is not None else 0.0
        record = self.wal.append(kind, data, at=self.clock())
        if ts is not None:
            ts.observe("storage.wal_append_us",
                       (time.perf_counter() - t0) * 1e6)
        self._count("wal_appends")
        self._since_snapshot += 1
        if self.snapshot_every and self._since_snapshot >= self.snapshot_every:
            self.take_snapshot()
        return record

    def take_snapshot(self) -> int:
        """Serialize every plane, persist, compact; returns records
        compacted away."""
        state = {name: plane.snapshot()
                 for name, plane in self._planes.items()}
        compacted = self.wal.write_snapshot(state)
        self._count("snapshots")
        self._count("records_compacted", compacted)
        self._since_snapshot = 0
        return compacted

    # -- recovery -------------------------------------------------------
    def recover(self) -> RecoveryReport:
        """Rebuild every registered plane: restore the snapshot, then
        replay the WAL tail through the planes' apply hooks."""
        t0 = time.perf_counter()
        report = RecoveryReport(snapshot_lsn=self.wal.snapshot_lsn,
                                last_lsn=self.wal.last_lsn)
        self.recovering = True
        try:
            state = self.wal.snapshot_state()
            if state:
                for name, plane in self._planes.items():
                    if name in state:
                        plane.restore(state[name])
            for record in self.wal.tail():
                plane_name, _, event = record.kind.partition(".")
                plane = self._planes.get(plane_name)
                if plane is None:
                    continue  # a plane this deployment doesn't run
                plane.apply(event, record.data, record.at)
                report.replayed += 1
                report.planes[plane_name] = \
                    report.planes.get(plane_name, 0) + 1
        finally:
            self.recovering = False
        report.wall_ms = (time.perf_counter() - t0) * 1e3
        self._count("recoveries")
        self._count("records_replayed", report.replayed)
        if self.metrics is not None:
            self.metrics.last_recovery_ms = report.wall_ms
        return report


class NullJournal:
    """API-compatible no-op: standalone components journal into the void,
    so the hot path never branches on ``journal is None``."""

    recovering = False
    snapshot_every = 0
    metrics = None

    def register_plane(self, name, *, snapshot, restore, apply) -> None:
        pass

    def append(self, kind, data):
        return None

    def take_snapshot(self) -> int:
        return 0

    def recover(self) -> RecoveryReport:
        return RecoveryReport()


#: the shared no-op instance (stateless, safe to share)
NULL_JOURNAL = NullJournal()
