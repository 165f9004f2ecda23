"""Simulated wide-area network substrate.

Hosts exchange :class:`~repro.net.network.Frame` objects over duplex
:class:`~repro.net.link.Link` objects with explicit propagation latency and
bandwidth.  Routing is static shortest-path (by latency): the network's
own Dijkstra over its adjacency map, resolved once per host pair, with
equal-cost routes settled by the order the topology was built in.  Every
frame is charged its real encoded size (from :mod:`repro.wire`),
transmission time on each hop, and propagation latency — and every hop
is counted by the :class:`~repro.net.trace.TrafficTrace`, which is how
the P2P-versus-centralized traffic experiments (E4/E5) measure WAN
message and byte counts.

:func:`~repro.net.topology.build_multi_domain` lays out the paper's
domains (one :func:`~repro.net.topology.build_lan` each, servers joined
by a WAN mesh); the fleet drill builds its own star.

:class:`~repro.net.costs.CostModel` holds the per-protocol CPU service
costs (HTTP servlet dispatch vs custom TCP channel vs CORBA marshalling)
that reproduce the paper's §6.1/§6.2 trade-off between wide deployment and
performance.
"""

from repro.net.costs import CostModel
from repro.net.host import Endpoint, Host
from repro.net.link import Link
from repro.net.network import Frame, Network, NetworkError
from repro.net.topology import build_lan, build_multi_domain
from repro.net.trace import TrafficTrace

__all__ = [
    "CostModel",
    "Endpoint",
    "Frame",
    "Host",
    "Link",
    "Network",
    "NetworkError",
    "TrafficTrace",
    "build_lan",
    "build_multi_domain",
]
