"""Traffic accounting.

Counts every frame on every hop, split by link kind (LAN/WAN) and by wire
channel.  Experiment E4 reads ``wan_messages`` / ``wan_bytes`` to show the
paper's claim that the peer-to-peer server network sends *one* message to a
remote server instead of one per remote client (§5.2.3).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.network import Frame

#: how many distinct trace ids keep per-trace traffic counters (LRU)
MAX_TRACE_IDS = 256


@dataclass(slots=True)
class LinkCounter:
    """Per-link totals."""

    messages: int = 0
    bytes: int = 0


class TrafficTrace:
    """Aggregates per-link, per-kind, and per-channel traffic totals.

    Frames stamped with a trace context (by the tracer, via
    ``Frame.trace_ctx``) are additionally counted per trace id, so a
    request's hop count and wire bytes can be correlated with its span
    tree.  The per-trace table is LRU-bounded at :data:`MAX_TRACE_IDS` —
    long runs cannot grow it without limit.
    """

    def __init__(self) -> None:
        self.per_link: Dict[Tuple[str, str], LinkCounter] = defaultdict(LinkCounter)
        self.per_kind: Dict[str, LinkCounter] = defaultdict(LinkCounter)
        self.per_channel: Dict[str, LinkCounter] = defaultdict(LinkCounter)
        self.total = LinkCounter()
        #: frames that reached an unbound destination port
        self.dropped = LinkCounter()
        #: per-trace-id hop totals, most recently active last (bounded)
        self.per_trace: "OrderedDict[int, LinkCounter]" = OrderedDict()
        #: each link seen so far -> its ``per_link`` and ``per_kind``
        #: counters, so a hop derives neither key again
        self._of_link: Dict["Link", Tuple[LinkCounter, LinkCounter]] = {}

    def for_trace(self, trace_id: int) -> LinkCounter:
        """The (possibly evicted → zeroed) hop totals of one trace."""
        return self.per_trace.get(trace_id, LinkCounter())

    def _trace_counter(self, trace_id: int) -> LinkCounter:
        counter = self.per_trace.get(trace_id)
        if counter is None:
            counter = self.per_trace[trace_id] = LinkCounter()
            while len(self.per_trace) > MAX_TRACE_IDS:
                self.per_trace.popitem(last=False)
        else:
            self.per_trace.move_to_end(trace_id)
        return counter

    def record_dropped(self, frame: "Frame") -> None:
        """Count one undeliverable frame (destination port unbound)."""
        self.dropped.messages += 1
        self.dropped.bytes += frame.size

    def record(self, link: "Link", frame: "Frame") -> None:
        """Count one frame crossing one link: one message and
        ``frame.size`` bytes into the link's, its kind's and the
        channel's counters and the total, and into the frame's trace's
        when it carries a context (which also makes that trace the most
        recently active of the LRU)."""
        resolved = self._of_link.get(link)
        if resolved is None:
            resolved = self._of_link[link] = (
                self.per_link[tuple(sorted(link.ends))],
                self.per_kind[link.kind])
        on_link, on_kind = resolved
        on_channel = self.per_channel[frame.channel]
        total = self.total
        size = frame.size
        on_link.messages += 1
        on_link.bytes += size
        on_kind.messages += 1
        on_kind.bytes += size
        on_channel.messages += 1
        on_channel.bytes += size
        total.messages += 1
        total.bytes += size
        if frame.trace_ctx is not None:
            on_trace = self._trace_counter(frame.trace_ctx.trace_id)
            on_trace.messages += 1
            on_trace.bytes += size

    # -- convenience views used by the benchmarks -------------------------
    @property
    def wan_messages(self) -> int:
        return self.per_kind["wan"].messages

    @property
    def wan_bytes(self) -> int:
        return self.per_kind["wan"].bytes

    @property
    def lan_messages(self) -> int:
        return self.per_kind["lan"].messages

    @property
    def lan_bytes(self) -> int:
        return self.per_kind["lan"].bytes

    def reset(self) -> None:
        """Zero all counters (between benchmark phases)."""
        self.per_link.clear()
        self.per_kind.clear()
        self.per_channel.clear()
        self.total = LinkCounter()
        self.dropped = LinkCounter()
        self.per_trace.clear()
        self._of_link.clear()

    def snapshot(self) -> dict:
        """A plain-dict summary for reports."""
        return {
            "traced_trace_ids": len(self.per_trace),
            "total_messages": self.total.messages,
            "total_bytes": self.total.bytes,
            "wan_messages": self.wan_messages,
            "wan_bytes": self.wan_bytes,
            "lan_messages": self.lan_messages,
            "lan_bytes": self.lan_bytes,
            "dropped_messages": self.dropped.messages,
            "dropped_bytes": self.dropped.bytes,
            "by_channel": {ch: (c.messages, c.bytes)
                           for ch, c in sorted(self.per_channel.items())},
        }
