"""PeerRegistry: peer discovery, liveness, and reference caches.

§5.2.1: "The application identifier is chosen to be a combination of the
server's IP address and a local count of the applications on each server
... the server's IP address can be extracted from this application
identifier, making it very easy to determine if the application is a local
application or a remote application."
:func:`repro.directory.home_server_of` implements that extraction;
everything here manages *how to reach* the home server once it is known.

The registry owns every cached artifact of the peer network — the
level-one peer stubs and the level-two ``CorbaProxy`` stubs (each carries
its resolved reference) — together with their invalidation rules:

- an ``app_stopped`` notice drops the application's proxy stub;
- an :class:`~repro.orb.OrbError` from a peer call drops the peer's stub
  (and the proxy stubs of applications homed there), so a restarted peer
  or re-registered application is re-resolved instead of served stale;
- re-registration always resolves fresh (application ids are never
  reused, but the rule keeps the cache honest under replays).

:meth:`PeerRegistry.call` is the one place a peer call is made: it applies
those rules and books the outcome with the health model exactly once, so
callers keep only their spans, logs and counters.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.interfaces import CORBA_PROXY, DISCOVER_CORBA_SERVER
from repro.directory import home_server_of
from repro.orb import ObjectRef, OrbError
from repro.orb.idl import Stub, make_stub

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics import FederationMetrics
    from repro.orb import Orb


class PeerRegistry:
    """One server's map of the peer network and its reference caches."""

    def __init__(self, orb: "Orb", server_name: str, *,
                 trader_ref: Optional[ObjectRef] = None,
                 service_id: str = "DISCOVER",
                 call_timeout: float = 30.0,
                 metrics: Optional["FederationMetrics"] = None) -> None:
        self.orb = orb
        self.server_name = server_name
        self.trader_ref = trader_ref
        self.service_id = service_id
        self.call_timeout = call_timeout
        self.metrics = metrics
        #: peer server name → level-one DiscoverCorbaServer reference
        self.peers: Dict[str, ObjectRef] = {}
        self._peer_stubs: Dict[str, Stub] = {}
        #: app_id → CorbaProxy stub (level-two cache; ``stub.ref`` is the
        #: resolved reference)
        self._proxies: Dict[str, Stub] = {}
        #: the server's HealthMonitor — :meth:`call` books every peer call
        #: outcome with it (set by DiscoverServer)
        self.health = None
        #: the server's StructuredLog (set by DiscoverServer)
        self.log = None

    # -- the peer call -----------------------------------------------------
    def call(self, peer: str, op: str, *args, app_id: Optional[str] = None,
             **kwargs):
        """Generator: one call to ``peer``, its outcome booked once.

        Without ``app_id`` the call goes to the peer's level-one server;
        with it, to that application's level-two ``CorbaProxy`` (resolved
        through the cache).  An :class:`OrbError` from the wire drops the
        caches the call touched (the app's, then the peer's), is booked
        and propagates; an answer is booked as proof of life.  An error
        raised before anything was sent (an unknown peer) is not booked.
        """
        stub = (self.peer_stub(peer) if app_id is None
                else (yield from self.remote_proxy_stub(app_id)))
        method = getattr(stub, op)
        try:
            result = yield from method(*args, **kwargs)
        except OrbError as exc:
            if app_id is not None:
                self.invalidate_app(app_id)
            self.invalidate_peer(peer)
            if self.health is not None:
                self.health.note_call(peer, exc)
            raise
        if self.health is not None:
            self.health.note_call(peer)
        return result

    def peer_unhealthy(self, name: str) -> bool:
        """Routing predicate: the health model says avoid this peer."""
        return self.health is not None and self.health.is_unhealthy_peer(name)

    # -- discovery ---------------------------------------------------------
    def discover_peers(self):
        """Generator: find every other DISCOVER server via the trader."""
        if self.trader_ref is None:
            # a server deployed without a trader cannot see the fleet —
            # surface the skip instead of dropping it on the floor
            if self.log is not None:
                self.log.warn("fed_discovery_skipped",
                              reason="no trader_ref",
                              service_id=self.service_id)
            if self.metrics is not None:
                self.metrics.count("discovery_skipped")
            return []
        offers = yield from self.orb.invoke(
            self.trader_ref, "query", self.service_id,
            timeout=self.call_timeout)
        found = []
        for offer in offers:
            peer = offer.properties.get("server", offer.ref.host)
            if peer == self.server_name:
                continue
            self.add_peer(peer, offer.ref)
            found.append(peer)
        return found

    def add_peer(self, name: str, ref: ObjectRef) -> None:
        """Static peer wiring (tests / fixed deployments).

        Re-adding a peer under a changed reference (a restarted server)
        drops every cache derived from the old reference.
        """
        if name == self.server_name:
            return
        if self.peers.get(name) != ref:
            self.invalidate_peer(name)
        self.peers[name] = ref

    def known_peers(self) -> List[str]:
        return sorted(self.peers)

    def check_peer(self, name: str):
        """Generator: liveness probe; False (and caches dropped) if dead."""
        try:
            answer = yield from self.call(name, "ping")
        except OrbError:
            return False
        return answer == name

    def exchange_health(self, peer: str, view: dict):
        """Generator: gossip one health view with a peer; returns the
        peer's view, or None if the peer is unreachable (noted as a miss).

        This is the only place the health plane touches the wire — opt-in
        via the monitor's ``gossip_period`` (see
        :class:`repro.health.HealthMonitor`).
        """
        try:
            return (yield from self.call(peer, "exchange_health",
                                         self.server_name, view))
        except OrbError as exc:
            if self.log is not None:
                self.log.warn("federation.gossip_failed", peer=peer,
                              error=str(exc))
            return None

    # -- typed stubs -------------------------------------------------------
    def peer_stub(self, name: str) -> Stub:
        """Typed level-one stub for a known peer server."""
        stub = self._peer_stubs.get(name)
        if stub is None or stub.ref != self.peers.get(name):
            try:
                ref = self.peers[name]
            except KeyError:
                raise OrbError(f"no peer server {name!r} known at "
                               f"{self.server_name}") from None
            stub = make_stub(self.orb, ref, DISCOVER_CORBA_SERVER,
                             timeout=self.call_timeout)
            self._peer_stubs[name] = stub
        return stub

    def remote_proxy_stub(self, app_id: str):
        """Generator: resolved, cached level-two stub for a remote app."""
        stub = self._proxies.get(app_id)
        if stub is not None:
            return stub
        home = home_server_of(app_id)
        with self.orb.tracer.span("federation.resolve_proxy",
                                  plane="federation",
                                  server=self.server_name,
                                  attrs={"app_id": app_id, "home": home}):
            ref = yield from self.call(home, "get_corba_proxy", app_id)
        stub = self._proxies[app_id] = make_stub(
            self.orb, ref, CORBA_PROXY, timeout=self.call_timeout)
        return stub

    def remote_proxy_ref(self, app_id: str):
        """Generator: resolve (and cache) a remote app's CorbaProxy ref."""
        return (yield from self.remote_proxy_stub(app_id)).ref

    # -- invalidation ------------------------------------------------------
    def invalidate_app(self, app_id: str) -> None:
        """Drop the level-two cache entry of one application."""
        if (self._proxies.pop(app_id, None) is not None
                and self.metrics is not None):
            self.metrics.count("app_invalidations")

    def invalidate_peer(self, name: str) -> None:
        """Drop the peer's stub and every proxy cache homed at it.

        The peer's discovery entry (``self.peers``) survives — availability
        is "determined at runtime" (§4.2), so the next call re-resolves
        through the same reference, or re-discovery replaces it.
        """
        dropped = self._peer_stubs.pop(name, None) is not None
        for app_id in [a for a in self._proxies
                       if home_server_of(a) == name]:
            del self._proxies[app_id]
            dropped = True
        if dropped and self.metrics is not None:
            self.metrics.count("peer_invalidations")

    # -- level-one fan-out helpers ----------------------------------------
    def collect_remote_apps(self, user: str) -> dict:
        """Generator: the §5.2.2 login fan-out — authenticate ``user`` with
        every peer and merge the application summaries they return."""
        found: Dict[str, dict] = {}
        for peer in list(self.peers):
            if self.peer_unhealthy(peer):
                # the health model already marked it down — skip the
                # synchronous call instead of burning a timeout on it
                if self.log is not None:
                    self.log.warn("federation.skip_unhealthy_peer",
                                  peer=peer, op="authenticate_and_list")
                continue
            try:
                apps = yield from self.call(peer, "authenticate_and_list",
                                            user)
            except OrbError as exc:
                # peer down — availability "determined at runtime"
                if self.log is not None:
                    self.log.warn("federation.peer_unreachable", peer=peer,
                                  op="authenticate_and_list", error=str(exc))
                continue
            for summary in apps:
                found[summary["app_id"]] = summary
        return found

    def push_update(self, peer: str, app_id: str, msg) -> bool:
        """Oneway §5.2.3 update push to a subscribed peer (if known and
        not marked unhealthy)."""
        if peer not in self.peers or self.peer_unhealthy(peer):
            return False
        self.peer_stub(peer).deliver_update(app_id, msg)
        return True

    def push_group_message(self, peer: str, app_id: str, group: str, msg,
                           exclude: str = "") -> bool:
        """Oneway group-message push to a subscribed peer (if known and
        not marked unhealthy)."""
        if peer not in self.peers or self.peer_unhealthy(peer):
            return False
        self.peer_stub(peer).deliver_group_message(app_id, group, msg,
                                                   exclude=exclude)
        return True

    def push_to_client(self, owner: str, client_id: str, msg) -> bool:
        """Oneway response/notification push to the client's home server."""
        if owner not in self.peers or self.peer_unhealthy(owner):
            return False
        self.peer_stub(owner).deliver_to_client(client_id, msg)
        return True
