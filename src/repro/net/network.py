"""The network: topology, routing, and frame delivery.

``Network.send`` resolves the (latency-weighted) shortest path once per
``(src, dst)`` pair — a private Dijkstra over the adjacency map, see
:meth:`Network._shortest` for the tie rule — then walks it with a
:class:`_Delivery` state machine: each hop is one
:meth:`Link.send <repro.net.link.Link.send>` — queueing, transmission and
propagation fused into one pooled kernel callback at the arrival time —
and is counted by the traffic trace when it lands.  At the last hop the
frame is handed to the destination port's deliver callable, without an
event of its own: a queued port's ``Store.try_put`` (a waiting receiver's
``get`` is then the only event), or a handler port's handler, which runs
in the arrival slot and schedules whatever it starts.  Compared to the
generator-process-per-frame design this replaces, a single-hop delivery
schedules one pooled event instead of spawning a process (boot event,
resource grant, two timeouts, process-completion event) — and no per-frame
process name is ever built.

Payloads cross the simulated wire **by reference** — ``encode()`` is never
called on the send path; byte accounting comes from the allocation-free
size visitor (``freeze_size``), and ndarray payloads are therefore
zero-copy end to end.  ``strict_wire=True`` opts back into round-tripping
every payload through ``encode``/``decode`` at hand-off, for codec-parity
tests.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from repro.net.host import Host
from repro.net.link import Link
from repro.net.trace import TrafficTrace
from repro.wire import decode, encode, freeze_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator

#: how many recently dropped frames are kept around for debugging
DROPPED_HISTORY = 64


class NetworkError(Exception):
    """Unroutable destinations, unbound ports, unknown hosts."""


class Frame:
    """One payload in flight, with its measured wire size.

    A plain ``__slots__`` record that :meth:`Network.send` builds
    positionally, one per message.  ``trace_ctx`` is the propagated trace
    context (a ``TraceContext``, internal to :mod:`repro.obs`: not in its
    ``__all__``), carried as frame metadata only — never encoded, so wire
    sizes are trace-invariant.  ``frame_id`` is the network's simulator's
    ``"frame"`` id, drawn by :meth:`Network.send`.
    """

    __slots__ = ("src_host", "src_port", "dst_host", "dst_port", "payload",
                 "size", "channel", "sent_at", "delivered_at", "trace_ctx",
                 "frame_id")

    def __init__(self, frame_id: int, src_host: str, src_port: int,
                 dst_host: str, dst_port: int, payload: Any, size: int,
                 channel: str = "main", sent_at: float = 0.0,
                 delivered_at: Optional[float] = None,
                 trace_ctx: Any = None) -> None:
        self.src_host = src_host
        self.src_port = src_port
        self.dst_host = dst_host
        self.dst_port = dst_port
        self.payload = payload
        self.size = size
        self.channel = channel
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        self.trace_ctx = trace_ctx
        self.frame_id = frame_id

    @property
    def latency(self) -> Optional[float]:
        """End-to-end delivery time, once delivered."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Frame #{self.frame_id} {self.src_host}:{self.src_port}->"
                f"{self.dst_host}:{self.dst_port} ch={self.channel} "
                f"{self.size}B>")


class _Delivery:
    """Per-frame hop walker: the fused replacement for the old
    generator-process delivery.

    Each hop is one pooled callback, :meth:`_arrive` at the arrival time
    the link computes; a hop that costs no time is a synchronous call.
    The instance is the only per-frame allocation; the links it walks are
    the route's, resolved once per ``(src, dst)`` pair.

    A hop that lands is written down by two bookkeepers, in this order:
    the traffic trace (:meth:`TrafficTrace.record`, which also charges
    the hop to the cost ledger attached to it), and — once, at the last
    hop of a frame that carries a trace context — the tracer's ``net.hop``
    span.  Then the frame is handed off.
    """

    __slots__ = ("net", "frame", "links", "idx", "at", "wan")

    def __init__(self, net: "Network", frame: Frame,
                 links: Tuple[Link, ...]) -> None:
        self.net = net
        self.frame = frame
        self.links = links
        self.idx = 0
        #: the host the frame is at (or leaving)
        self.at = frame.src_host
        self.wan = False
        links[0].send(frame.src_host, frame.size, _Delivery._arrive, self)

    def _arrive(self) -> None:
        net, frame, links, idx = self.net, self.frame, self.links, self.idx
        link = links[idx]
        net.trace.record(link, frame)
        if link.kind == "wan":
            self.wan = True
        self.idx = idx = idx + 1
        if idx < len(links):
            self.at = at = link.other(self.at)
            links[idx].send(at, frame.size, _Delivery._arrive, self)
            return
        tracer = net.tracer
        if tracer is not None and frame.trace_ctx is not None:
            # Post-hoc bookkeeping: the transit already happened, the span
            # just records it (zero-event — no scheduling, no wire bytes).
            # The store keeps the row's label in the kind it shares with
            # the other hops of the host pair, and refuses it when full.
            tracer.record_span(
                "net.hop", frame.sent_at, net.sim.now, plane="net",
                server=f"{frame.src_host}->{frame.dst_host}",
                parent=frame.trace_ctx,
                attrs={"wan": self.wan, "channel": frame.channel,
                       "bytes": frame.size})
        net._hand_off(frame)


class Network:
    """A set of hosts joined by links, with static shortest-path routing."""

    def __init__(self, sim: "Simulator", trace: Optional[TrafficTrace] = None,
                 frame_overhead: int = 64, strict_wire: bool = False) -> None:
        self.sim = sim
        self.trace = trace if trace is not None else TrafficTrace()
        #: optional repro.obs.Tracer — stamps outgoing frames with the
        #: sender's current trace context and records per-hop spans.  It is
        #: asked on every send, so a tracer that samples nothing is left
        #: unattached (``build_collaboratory``)
        self.tracer = None
        #: per-frame framing overhead in bytes (headers: TCP/IP + protocol)
        self.frame_overhead = frame_overhead
        #: round-trip every payload through encode/decode at hand-off.
        #: Off by default: payloads travel by reference (zero-copy) with
        #: their frozen size; strict mode exists for codec-parity tests.
        self.strict_wire = strict_wire
        self.hosts: Dict[str, Host] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        #: ``host -> {neighbour: Link}``, neighbours in link insertion order
        self._adjacent: Dict[str, Dict[str, Link]] = {}
        #: the links of each ``(src, dst)`` pair's route, in order
        self._routes: Dict[Tuple[str, str], Tuple[Link, ...]] = {}
        #: the most recent frames that arrived at unbound ports (bounded —
        #: undeliverable traffic must not grow memory without limit; the
        #: total is ``trace.dropped``)
        self.dropped: Deque[Frame] = deque(maxlen=DROPPED_HISTORY)

    # -- construction ------------------------------------------------------
    def add_host(self, name: str, cpu_capacity: int = 1,
                 domain: str = "default") -> Host:
        """Create and attach a host."""
        if name in self.hosts:
            raise NetworkError(f"duplicate host {name!r}")
        host = Host(self.sim, name, cpu_capacity=cpu_capacity, domain=domain)
        host.network = self
        self.hosts[name] = host
        self._adjacent[name] = {}
        return host

    def add_link(self, a: str, b: str, latency: float,
                 bandwidth: float = float("inf"), kind: str = "lan") -> Link:
        """Join two existing hosts with a duplex link."""
        for end in (a, b):
            if end not in self.hosts:
                raise NetworkError(f"unknown host {end!r}")
        key = tuple(sorted((a, b)))
        if key in self.links:
            raise NetworkError(f"duplicate link {a}<->{b}")
        link = Link(self.sim, a, b, latency, bandwidth, kind)
        self.links[key] = link
        self._adjacent[a][b] = self._adjacent[b][a] = link
        self._routes.clear()
        return link

    # -- routing ------------------------------------------------------------
    def _links(self, src: str, dst: str) -> Tuple[Link, ...]:
        """The links a frame crosses from ``src`` to ``dst``, in order."""
        key = (src, dst)
        links = self._routes.get(key)
        if links is None:
            links = self._routes[key] = self._shortest(src, dst)
        return links

    def _shortest(self, src: str, dst: str) -> Tuple[Link, ...]:
        """Dijkstra from ``src``, stopping at ``dst``; a link weighs its
        latency, at least 1 ns.  Among equal-cost routes the first one
        found stays: relaxation is strict ``<``, the heap orders by
        ``(distance, push order)`` and neighbours are visited in link
        insertion order — so a route depends only on the order the
        topology was built in."""
        adjacent = self._adjacent
        best = {src: 0.0}
        routes: Dict[str, Tuple[Link, ...]] = {src: ()}
        heap = [(0.0, 0, src)] if src in adjacent else []  # unknown: no way
        pushes = 1
        while heap:
            dist, _, host = heappop(heap)
            if host == dst:
                return routes[host]
            if dist > best[host]:
                continue  # a shorter way here was found after this push
            for peer, link in adjacent[host].items():
                reach = dist + max(link.latency, 1e-9)
                if reach < best.get(peer, float("inf")):
                    best[peer] = reach
                    routes[peer] = routes[host] + (link,)
                    heappush(heap, (reach, pushes, peer))
                    pushes += 1
        raise NetworkError(f"no route {src} -> {dst}")

    def route(self, src: str, dst: str) -> List[str]:
        """Hop sequence (list of host names) from ``src`` to ``dst``."""
        path = [src]
        for link in self._links(src, dst):
            path.append(link.other(path[-1]))
        return path

    def path_latency(self, src: str, dst: str) -> float:
        """Sum of propagation latencies along the route (no queueing)."""
        return sum(link.latency for link in self._links(src, dst))

    # -- delivery -------------------------------------------------------------
    def send(self, src_host: str, src_port: int, dst_host: str, dst_port: int,
             payload: Any, channel: str = "main",
             trace_ctx: Any = None) -> Frame:
        """Inject a frame; returns it immediately (delivery is asynchronous)."""
        if dst_host not in self.hosts:
            raise NetworkError(f"unknown destination host {dst_host!r}")
        # freeze_size memoizes the payload's wire size: a message re-sent
        # (retries, fan-out to several destinations) is sized exactly once
        size = freeze_size(payload) + self.frame_overhead
        if trace_ctx is None and self.tracer is not None:
            trace_ctx = self.tracer.current_context()
        frame = Frame(self.sim.next_id("frame"), src_host, src_port,
                      dst_host, dst_port, payload, size, channel,
                      self.sim.now, None, trace_ctx)
        if src_host == dst_host:
            # Loopback: no links, no transmission — handed off this instant
            self.sim.schedule_fn(0.0, self._hand_off, frame)
        else:
            _Delivery(self, frame, self._links(src_host, dst_host))
        return frame

    def _hand_off(self, frame: Frame) -> None:
        deliver = self.hosts[frame.dst_host].ports.get(frame.dst_port)
        frame.delivered_at = self.sim.now
        if deliver is None:
            # Port not bound: the frame is dropped, like a TCP RST. Higher
            # layers see it as a timeout. A bounded window stays visible
            # for diagnosability; the counters record the full total.
            self.dropped.append(frame)
            self.trace.record_dropped(frame)
            return
        if self.strict_wire:
            # Parity mode: materialize the bytes the reference codec would
            # put on the wire and hand the decoded copy to the receiver.
            frame.payload = decode(encode(frame.payload))
        deliver(frame)
