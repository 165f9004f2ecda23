"""The FIFO store: the message-queue primitive of the whole system.

Queued ports (daemon, applications, raw endpoints) and per-client FIFO
output buffers are :class:`Store` objects.  A store is filled without
waiting (:meth:`Store.try_put` refuses when full) and drained by
:meth:`Store.get`, the event a process waits on, or :meth:`Store.try_get`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Optional

from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class StoreGet(SimEvent):
    """Event returned by :meth:`Store.get`; fires with the retrieved item."""

    __slots__ = ()


class Store:
    """FIFO buffer with a blocking ``get`` and a refusing ``try_put``.

    ``capacity`` bounds the number of buffered items.  The default is
    unbounded, matching the paper's per-client FIFO buffers ("it
    necessitates ... FIFO buffers at the server for each client to support
    slow clients") — experiment A2 studies what bounding them does.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def get(self) -> StoreGet:
        """Request the next item; the returned event fires with the item."""
        ev = StoreGet(self.sim)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self) -> Optional[Any]:
        """Non-blocking get: pop and return an item, or ``None`` if empty."""
        if not self.items:
            return None
        return self.items.popleft()

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: buffer the item unless the store is full.

        Nobody waits on a put, so it makes no event: the item goes straight
        into the buffer, and a waiting getter is served through the usual
        dispatch (one event, the getter's).
        """
        if len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        if self._getters:
            self._dispatch()
        return True

    def cancel(self, event: SimEvent) -> None:
        """Withdraw a not-yet-fired get event from the wait queue.

        Needed by timed waits: a process racing a ``get()`` against a
        timeout must cancel the loser, or a later put would be consumed by
        an abandoned event and the item silently lost.
        """
        if event.triggered:
            return
        try:
            self._getters.remove(event)
        except ValueError:
            pass

    def _dispatch(self) -> None:
        while self._getters and self.items:
            self._getters.popleft().succeed(self.items.popleft())
