"""Per-protocol CPU cost model.

The paper's single quantitative finding (§6.1) is an *asymmetry*: one server
sustained **>40 simultaneous applications** (custom TCP channel) but only
**~20 simultaneous clients** (HTTP + servlets) — "the design trade off
between high performance and wide spread deployment when using commodity
technologies".  §6.2 adds that CORBA "reduces performance when compared to a
lower level socket based system".

We model that by charging the server CPU a per-message *service time* that
depends on the protocol the message arrived on.  The defaults below are
calibrated (see EXPERIMENTS.md) so that with the paper's implied workload —
applications pushing ~2 updates/s, clients polling ~4 times/s — a
single-CPU server saturates near 45 applications and degrades visibly past
~20 clients, matching the published operating points.  All times are in
seconds, sizes in bytes.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostModel:
    """CPU service times charged at servers for each kind of work."""

    # --- custom TCP channel (application <-> home server, §4.1) ---------
    #: fixed cost to handle one message from the app channel
    tcp_message_cost: float = 0.003
    #: per-byte deserialization cost on the app channel
    tcp_per_byte: float = 2.0e-8

    # --- HTTP + servlet engine (client <-> server) -----------------------
    #: fixed cost of accepting an HTTP request and dispatching a servlet
    http_request_cost: float = 0.012
    #: per-byte cost of request/response bodies through the servlet engine
    http_per_byte: float = 1.0e-7
    #: extra cost to build a session on first contact (cookie, session obj)
    http_session_setup_cost: float = 0.004

    # --- CORBA ORB (server <-> server, §5) -------------------------------
    #: fixed cost of one remote invocation (stub+skeleton+ORB dispatch)
    corba_call_cost: float = 0.006
    #: per-byte marshalling cost (CDR encode + decode)
    corba_per_byte: float = 8.0e-8
    #: trader query cost per offer examined
    trader_match_cost: float = 0.0008

    # --- security ---------------------------------------------------------
    #: verify a credential against the ACL store
    auth_check_cost: float = 0.005
    #: SSL-ish handshake surcharge on first authentication
    ssl_handshake_cost: float = 0.012

    # --- archival ----------------------------------------------------------
    #: append one record to the session/application log (RDBMS insert)
    log_append_cost: float = 0.001
    #: read one record back during replay/latecomer catch-up
    log_read_cost: float = 0.001

    def tcp_cost(self, size: int) -> float:
        """Service time for one custom-TCP-channel message of ``size`` bytes."""
        return self.tcp_message_cost + self.tcp_per_byte * size

    def http_cost(self, size: int, new_session: bool = False) -> float:
        """Service time for one HTTP request with ``size`` bytes of body."""
        cost = self.http_request_cost + self.http_per_byte * size
        if new_session:
            cost += self.http_session_setup_cost
        return cost

    def corba_cost(self, size: int) -> float:
        """Service time to dispatch one CORBA invocation of ``size`` bytes."""
        return self.corba_call_cost + self.corba_per_byte * size


@dataclass
class LinkSpec:
    """Bandwidth/latency defaults for the two classes of links we build."""

    #: campus LAN: 100 Mbit/s, sub-millisecond latency
    lan_bandwidth: float = 100e6 / 8
    lan_latency: float = 0.0005
    #: WAN between collaboratory domains (paper §4.2 assumes "reasonable
    #: bandwidth links (~100 MB)"; latency is the experimental variable)
    wan_bandwidth: float = 100e6 / 8
    wan_latency: float = 0.030
