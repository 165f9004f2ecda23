"""Blocking FIFO stores and counted resources.

:class:`Store` is the message-queue primitive of the whole system: network
links, server input queues, and per-client FIFO output buffers are Stores.
:class:`Resource` models counted capacity with FIFO queueing (a server's CPU,
a steering lock's single slot).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Tuple

from repro.sim.errors import SimulationError
from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class StorePut(SimEvent):
    """Event returned by :meth:`Store.put`; fires when the item is stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.sim)
        self.item = item


class StoreGet(SimEvent):
    """Event returned by :meth:`Store.get`; fires with the retrieved item."""

    __slots__ = ()


class Store:
    """FIFO buffer with blocking ``get`` and (optionally) blocking ``put``.

    ``capacity`` bounds the number of buffered items; ``put`` on a full store
    waits until space frees up.  The default capacity is unbounded, matching
    the paper's per-client FIFO buffers ("it necessitates ... FIFO buffers at
    the server for each client to support slow clients") — experiment A2
    studies what bounding them does.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Queue ``item``; the returned event fires once it is buffered."""
        ev = StorePut(self, item)
        self._putters.append(ev)
        self._dispatch()
        return ev

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
        item = self.items.popleft()
        self._dispatch()
        return item

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: buffer the item unless the store is full.

        Nobody waits on a ``try_put``, so it makes no :class:`StorePut`:
        the item goes straight into the buffer, and a waiting getter is
        served through the usual dispatch (one event, the getter's).  A
        blocked ``put`` is never overtaken — putters only wait on a full
        store, which refuses.
        """
        if len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        if self._getters:
            self._dispatch()
        return True

    def cancel(self, event: SimEvent) -> None:
        """Withdraw a not-yet-fired get/put event from the wait queues.

        Needed by timed waits: a process racing a ``get()`` against a
        timeout must cancel the loser, or a later ``put`` would be consumed
        by an abandoned event and the item silently lost.
        """
        if event.triggered:
            return
        for queue in (self._getters, self._putters):
            try:
                queue.remove(event)
                return
            except ValueError:
                continue

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Move waiting put()s into the buffer while there is room.
            while self._putters and len(self.items) < self.capacity:
                putter = self._putters.popleft()
                self.items.append(putter.item)
                putter.succeed()
                progress = True
            # Serve waiting get()s from the buffer.
            while self._getters and self.items:
                getter = self._getters.popleft()
                getter.succeed(self.items.popleft())
                progress = True


class PriorityStore(Store):
    """A store whose items are retrieved smallest-first.

    Items must be orderable; use ``(priority, seq, payload)`` tuples to keep
    FIFO order within a priority class.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf")) -> None:
        super().__init__(sim, capacity)
        self._heap: List[Any] = []

    def __len__(self) -> int:
        return len(self._heap)

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and len(self._heap) < self.capacity:
                putter = self._putters.popleft()
                heapq.heappush(self._heap, putter.item)
                putter.succeed()
                progress = True
            while self._getters and self._heap:
                getter = self._getters.popleft()
                getter.succeed(heapq.heappop(self._heap))
                progress = True

    def try_get(self) -> Optional[Any]:
        if not self._heap:
            return None
        item = heapq.heappop(self._heap)
        self._dispatch()
        return item

    def try_put(self, item: Any) -> bool:
        if len(self._heap) >= self.capacity:
            return False
        heapq.heappush(self._heap, item)
        if self._getters:
            self._dispatch()
        return True


class ResourceRequest(SimEvent):
    """Event returned by :meth:`Resource.request`; fires when granted."""

    __slots__ = ("resource", "priority", "_seq")

    def __init__(self, resource: "Resource", priority: int, seq: int) -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority
        self._seq = seq

    def __lt__(self, other: "ResourceRequest") -> bool:
        return (self.priority, self._seq) < (other.priority, other._seq)

    # Support `with` semantics via explicit release.
    def release(self) -> None:
        self.resource.release(self)


class Resource:
    """Counted capacity with priority-FIFO queueing.

    Used for server CPUs (capacity = number of worker threads the paper's
    servlet engine would run) and as the building block of the steering lock.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._seq = 0
        self._queue: List[ResourceRequest] = []
        self._users: List[ResourceRequest] = []

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self, priority: int = 0) -> ResourceRequest:
        """Ask for a slot.  Lower ``priority`` is served first."""
        self._seq += 1
        req = ResourceRequest(self, priority, self._seq)
        heapq.heappush(self._queue, req)
        self._grant()
        return req

    def release(self, request: ResourceRequest) -> None:
        """Give back a previously granted slot."""
        try:
            self._users.remove(request)
        except ValueError:
            # Releasing an ungranted/cancelled request: drop it from queue.
            try:
                self._queue.remove(request)
                heapq.heapify(self._queue)
            except ValueError:
                raise SimulationError("release() of unknown request") from None
            return
        self._grant()

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            req = heapq.heappop(self._queue)
            self._users.append(req)
            req.succeed()
