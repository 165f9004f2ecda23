"""The durable state plane: WAL + snapshots behind a storage interface.

The paper's stateful handlers (§5.2.4 locks, §5.2.5 archival, §4.1
application proxies, collaboration groups) were process memory — PR 5's
fault-injection story therefore stopped at "failover to a replica";
nothing ever came back.  Grid middleware survives because its state
planes are durable catalogs, not heap objects.  This package makes the
server's planes exactly that:

- :class:`StorageBackend` — the medium interface: an append-only WAL
  region, an append-only archive region and one snapshot slot.
  :class:`MemoryBackend` (the default; models a durable device that
  outlives the server object because the deployment holds it) and
  :class:`JsonlBackend` (a directory with ``wal.jsonl`` +
  ``archive.jsonl`` + ``snapshot.json``, atomic rewrites) implement it.
- :class:`StateJournal` — the façade the server talks to.  Planes
  register ``(snapshot, restore, apply)`` hooks, or ``apply`` alone when
  they are append-only logs; mutations are journaled as ``plane.event``
  records; every ``snapshot_every`` appends the journal serializes the
  snapshotted planes, moves the log planes' covered records to the
  archive and compacts the WAL; and :meth:`StateJournal.recover`
  rebuilds everything from ``snapshot + archive + WAL tail`` on restart.
- :data:`NULL_JOURNAL` — the no-op used by standalone components, so
  journaling never needs a None check on the hot path.

Journaling is zero-event bookkeeping (like tracing): it schedules no
simulator events and touches no wire payloads, so golden tables are
unaffected whatever the backend.
"""

from repro.storage.backends import (
    JsonlBackend,
    MemoryBackend,
    StorageBackend,
    StorageError,
)
from repro.storage.journal import (
    DEFAULT_SNAPSHOT_EVERY,
    NULL_JOURNAL,
    NullJournal,
    RecoveryReport,
    StateJournal,
)

__all__ = [
    "DEFAULT_SNAPSHOT_EVERY",
    "JsonlBackend",
    "MemoryBackend",
    "NULL_JOURNAL",
    "NullJournal",
    "RecoveryReport",
    "StateJournal",
    "StorageBackend",
    "StorageError",
]
