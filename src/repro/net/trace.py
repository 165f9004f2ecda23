"""Traffic accounting.

Counts every frame on every hop, split by link kind (LAN/WAN) and by wire
channel.  Experiment E4 reads ``wan_messages`` / ``wan_bytes`` to show the
paper's claim that the peer-to-peer server network sends *one* message to a
remote server instead of one per remote client (§5.2.3).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Link
    from repro.net.network import Frame


@dataclass(slots=True)
class LinkCounter:
    """Message and byte totals."""

    messages: int = 0
    bytes: int = 0


class TrafficTrace:
    """Aggregates per-kind and per-channel traffic totals.

    The one book a hop is written into: :meth:`record` (and, for a frame
    shed at an unbound port, :meth:`record_dropped`) counts the frame and
    then charges the same bytes to the attached cost ``ledger``, if any,
    so the two can never disagree.  A traced request's own hops are
    not split out here: they are its ``net.hop`` spans (``bytes``
    attribute) in the tracer's store, and its principal's lan/wan bytes
    in the ledger.
    """

    def __init__(self) -> None:
        self.per_kind: Dict[str, LinkCounter] = defaultdict(LinkCounter)
        self.per_channel: Dict[str, LinkCounter] = defaultdict(LinkCounter)
        self.total = LinkCounter()
        #: frames that reached an unbound destination port
        self.dropped = LinkCounter()
        #: optional repro.obs.RequestCostLedger — each counted hop's bytes
        #: (LAN/WAN) and each dropped frame, charged to the request that
        #: sent it (via ``Frame.trace_ctx``) or to the source host
        self.ledger = None
        #: each link seen so far -> its ``per_kind`` counter and whether it
        #: is a WAN link, so a hop derives neither again
        self._of_link: Dict["Link", Tuple[LinkCounter, bool]] = {}

    def record_dropped(self, frame: "Frame") -> None:
        """Count one undeliverable frame (destination port unbound), then
        charge it to the ledger."""
        self.dropped.messages += 1
        self.dropped.bytes += frame.size
        if self.ledger is not None:
            self.ledger.account_dropped(frame)

    def record(self, link: "Link", frame: "Frame") -> None:
        """Count one frame crossing one link: one message and
        ``frame.size`` bytes into its kind's and the channel's counters
        and the total; then the same bytes into the ledger."""
        resolved = self._of_link.get(link)
        if resolved is None:
            resolved = self._of_link[link] = (self.per_kind[link.kind],
                                              link.kind == "wan")
        on_kind, wan = resolved
        on_channel = self.per_channel[frame.channel]
        total = self.total
        size = frame.size
        on_kind.messages += 1
        on_kind.bytes += size
        on_channel.messages += 1
        on_channel.bytes += size
        total.messages += 1
        total.bytes += size
        if self.ledger is not None:
            self.ledger.account_frame_hop(frame, wan)

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
        self.per_kind.clear()
        self.per_channel.clear()
        self.total = LinkCounter()
        self.dropped = LinkCounter()
        self._of_link.clear()

    def snapshot(self) -> dict:
        """A plain-dict summary for reports."""
        return {
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
