"""Hosts and endpoints.

A :class:`Host` is a named machine with a CPU and a set of ports.  Binding a
port yields an :class:`Endpoint` — the socket-like object all higher layers
(channels, ORB, HTTP) are built on.  A port is a function: the network hands
each arriving frame to the one callable bound there (:meth:`Host.bind`).

The CPU is a fused counted FIFO kept on the host, not a kernel primitive:
an uncontended ``use_cpu`` yields exactly one timeout (the service time),
with no request-grant round trip before it — the single hottest service
point in every scenario.  Contended claims queue FIFO for ``cpu_capacity``
concurrent slots.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, Dict, Optional

from repro.sim import SimEvent, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.network import Frame, Network
    from repro.sim import Simulator


class Host:
    """A machine in the simulated network.

    ``cpu_capacity`` is the number of requests the host can service
    concurrently (the paper's servlet engine worker pool); service *times*
    come from the :class:`~repro.net.costs.CostModel`.
    """

    def __init__(self, sim: "Simulator", name: str, cpu_capacity: int = 1,
                 domain: str = "default") -> None:
        self.sim = sim
        self.name = name
        self.domain = domain
        self.cpu_capacity = cpu_capacity
        self._cpu_free = cpu_capacity
        #: FIFO of grant events for jobs waiting on a busy CPU
        self._cpu_waiters: Deque[SimEvent] = deque()
        #: ``port -> deliver(frame)``: what the network calls on arrival
        self.ports: Dict[int, Callable[["Frame"], Any]] = {}
        self.network: Optional["Network"] = None

    def bind(self, port: int,
             handler: Optional[Callable[["Frame"], Any]] = None
             ) -> "Endpoint":
        """Reserve ``port`` and return its endpoint.

        Without ``handler`` the port is queued: arriving frames wait in the
        endpoint's inbox for ``recv``.  With one, each arriving frame is
        handed to ``handler(frame)`` in its arrival slot and the endpoint
        has no inbox.
        """
        if port in self.ports:
            raise ValueError(f"port {port} already bound on {self.name}")
        inbox = None
        if handler is None:
            inbox = Store(self.sim)
            handler = inbox.try_put  # unbounded, so never refused
        self.ports[port] = handler
        return Endpoint(self, port, handler, inbox)

    def use_cpu(self, duration: float):
        """Process: occupy one CPU slot for ``duration`` of service time.

        This is the queueing point that produces the paper's saturation
        behaviour: when offered load exceeds CPU capacity, waiting time —
        and thus client-visible latency — grows without bound.
        """
        if self._cpu_free > 0:
            self._cpu_free -= 1
        else:
            gate = SimEvent(self.sim)
            self._cpu_waiters.append(gate)
            try:
                yield gate
            except BaseException:
                if not gate.triggered:
                    # Interrupted while still queued: withdraw the claim.
                    self._cpu_waiters.remove(gate)
                else:
                    # Interrupted at the grant instant: the slot was already
                    # handed to us, pass it on.
                    self._cpu_release()
                raise
        try:
            if duration > 0:
                yield self.sim.timeout(duration)
        finally:
            self._cpu_release()

    def _cpu_release(self) -> None:
        # Hand the slot straight to the next waiter (FIFO) or free it.
        if self._cpu_waiters:
            self._cpu_waiters.popleft().succeed()
        else:
            self._cpu_free += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Host {self.name} domain={self.domain}>"


class Endpoint:
    """A bound (host, port) pair.

    ``send`` is fire-and-forget (delivery is handled by the network);
    ``recv`` blocks the calling process until a frame arrives — on a queued
    port only: a handler port's endpoint has no ``inbox``.
    """

    def __init__(self, host: Host, port: int,
                 deliver: Callable[["Frame"], Any],
                 inbox: Optional[Store]) -> None:
        self.host = host
        self.port = port
        self.deliver = deliver
        self.inbox = inbox

    def send(self, dst_host: str, dst_port: int, payload: Any,
             channel: str = "main", trace_ctx: Any = None) -> "Frame":
        """Hand ``payload`` to the network for delivery (returns the frame)."""
        if self.host.network is None:
            raise RuntimeError(f"host {self.host.name} is not attached "
                               f"to a network")
        return self.host.network.send(self.host.name, self.port,
                                      dst_host, dst_port, payload, channel,
                                      trace_ctx=trace_ctx)

    def recv(self):
        """Event that fires with the next delivered :class:`Frame`."""
        return self.inbox.get()

    def close(self) -> None:
        """Unbind the port, unless it is bound anew already (closing twice
        never releases a successor's port)."""
        if self.host.ports.get(self.port) is self.deliver:
            del self.host.ports[self.port]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Endpoint {self.host.name}:{self.port}>"
