"""Distributed steering locks.

§5.2.4: "A simple locking mechanism is used to ensure that the application
remains in a consistent state during collaborative interactions.  This
ensures that only one client 'drives' (issues commands) the application at
any time.  In a distributed server framework, locking information is only
maintained at the application's host server ... Servers providing remote
access to this application only relay lock requests to the host server."

:class:`LockManager` is that host-server authority: one lock per
application, FIFO wait queue, grant notifications delivered through a
callback so remote grants can be pushed across the CORBA tier.

Mutations funnel through private ``_do_*`` methods; the public protocol
wrappers journal one record per successful call, and recovery replays
those records through the same ``_do_*`` paths with notifications
suppressed (a replayed grant must not re-push a LockMessage).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional

from repro.storage import NULL_JOURNAL


class LockError(Exception):
    """Invalid lock operation (double acquire, foreign release...)."""


class SteeringLock:
    """The single-driver lock of one application."""

    def __init__(self, app_id: str) -> None:
        self.app_id = app_id
        self.holder: Optional[str] = None
        self.waiters: Deque[str] = deque()
        #: total grants, for reporting
        self.grants = 0


class LockManager:
    """All steering locks homed at one server.

    ``on_grant(app_id, client_id)`` is invoked whenever a queued waiter is
    promoted to holder — the server wires this to its client-notification
    path (local FIFO buffer or remote server push).
    """

    def __init__(self,
                 on_grant: Optional[Callable[[str, str], None]] = None,
                 journal=NULL_JOURNAL) -> None:
        self._locks: Dict[str, SteeringLock] = {}
        self.on_grant = on_grant
        self.journal = journal

    def _lock(self, app_id: str) -> SteeringLock:
        lock = self._locks.get(app_id)
        if lock is None:
            lock = self._locks[app_id] = SteeringLock(app_id)
        return lock

    # -- mutations (journal-free; shared by protocol and replay) -----------
    def _do_acquire(self, app_id: str, client_id: str) -> str:
        lock = self._lock(app_id)
        if lock.holder == client_id:
            return "granted"  # idempotent re-acquire
        if client_id in lock.waiters:
            return "queued"
        if lock.holder is None:
            lock.holder = client_id
            lock.grants += 1
            return "granted"
        lock.waiters.append(client_id)
        return "queued"

    def _do_release(self, app_id: str, client_id: str,
                    notify: bool = True) -> Optional[str]:
        lock = self._lock(app_id)
        if lock.holder != client_id:
            if client_id in lock.waiters:
                lock.waiters.remove(client_id)
                return None
            raise LockError(
                f"{client_id!r} does not hold the lock on {app_id!r}")
        lock.holder = None
        if lock.waiters:
            nxt = lock.waiters.popleft()
            lock.holder = nxt
            lock.grants += 1
            if notify and self.on_grant is not None:
                self.on_grant(app_id, nxt)
            return nxt
        return None

    def _do_drop(self, client_id: str, notify: bool = True) -> list:
        affected = []
        for app_id, lock in self._locks.items():
            if lock.holder == client_id:
                self._do_release(app_id, client_id, notify=notify)
                affected.append(app_id)
            elif client_id in lock.waiters:
                lock.waiters.remove(client_id)
        return affected

    # -- protocol ----------------------------------------------------------
    def acquire(self, app_id: str, client_id: str) -> str:
        """Request the lock.  Returns ``"granted"`` or ``"queued"``."""
        result = self._do_acquire(app_id, client_id)
        self.journal.append("locks.acquire",
                            {"app_id": app_id, "client_id": client_id})
        return result

    def release(self, app_id: str, client_id: str) -> Optional[str]:
        """Release the lock; returns the next holder's id, if any.

        A queued waiter may also withdraw (its id is removed silently).
        Releasing a lock one does not hold raises :class:`LockError`.
        """
        nxt = self._do_release(app_id, client_id)
        self.journal.append("locks.release",
                            {"app_id": app_id, "client_id": client_id})
        return nxt

    def drop_client(self, client_id: str) -> list:
        """Release/dequeue everything ``client_id`` holds (disconnect).

        Returns the app_ids whose lock changed hands or freed up.
        """
        affected = self._do_drop(client_id)
        self.journal.append("locks.drop", {"client_id": client_id})
        return affected

    def holder_of(self, app_id: str) -> Optional[str]:
        """Current driver of ``app_id`` (None if free)."""
        lock = self._locks.get(app_id)
        return lock.holder if lock else None

    def holds(self, app_id: str, client_id: str) -> bool:
        """True if ``client_id`` currently drives ``app_id``."""
        return self.holder_of(app_id) == client_id

    def queue_length(self, app_id: str) -> int:
        lock = self._locks.get(app_id)
        return len(lock.waiters) if lock else 0

    # -- durable state plane hooks -----------------------------------------
    def snapshot_state(self) -> dict:
        """Serialize every lock table to a JSON-safe document."""
        return {app_id: {"holder": lock.holder,
                         "waiters": list(lock.waiters),
                         "grants": lock.grants}
                for app_id, lock in self._locks.items()}

    def restore_state(self, state: dict) -> None:
        """Rebuild the lock tables from a :meth:`snapshot_state` document."""
        for app_id, doc in state.items():
            lock = self._lock(app_id)
            lock.holder = doc.get("holder")
            lock.waiters = deque(doc.get("waiters", ()))
            lock.grants = doc.get("grants", 0)

    def apply_event(self, event: str, data: dict, at: float) -> None:
        """Replay one journaled mutation, with grant pushes suppressed."""
        if event == "acquire":
            self._do_acquire(data["app_id"], data["client_id"])
        elif event == "release":
            self._do_release(data["app_id"], data["client_id"], notify=False)
        elif event == "drop":
            self._do_drop(data["client_id"], notify=False)
