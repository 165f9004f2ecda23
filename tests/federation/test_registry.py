"""PeerRegistry: reference caches and their invalidation rules.

The satellite bugfix of this layer: a cached ``CorbaProxy`` stub/ref must
not outlive the application (``app_stopped``) or the peer (OrbError), so
deregister → re-register and server restarts resolve fresh references
instead of serving stale ones.
"""

import pytest

from repro import AppConfig, PortalError
from repro.apps import SyntheticApp
from repro.orb import OrbError

from tests.federation.conftest import cfg, run


def cached_apps(server):
    """App ids with a live level-two cache entry at ``server``."""
    return sorted(server.registry._proxies)


def _warm_remote_cache(collab, app):
    """Open the app from server 1 so its level-two refs are cached there."""
    portal = collab.add_portal(1)

    def scenario():
        yield from portal.login("alice")
        yield from portal.open(app.app_id)

    run(collab, scenario())
    return portal


def test_select_populates_proxy_cache(pair):
    collab, app = pair
    s1 = collab.server_of(1)
    assert cached_apps(s1) == []
    _warm_remote_cache(collab, app)
    assert cached_apps(s1) == [app.app_id]


def test_app_stopped_notice_invalidates_cache(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)
    _warm_remote_cache(collab, app)
    assert app.app_id in cached_apps(s1)
    # the application deregisters; its home pushes app_stopped to s1
    s0.on_app_deregister(app.app_id)
    collab.sim.run(until=collab.sim.now + 1.0)
    assert cached_apps(s1) == []
    assert s1.federation_metrics.get("app_invalidations") >= 1


def test_orb_error_invalidates_peer_caches(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)
    portal = _warm_remote_cache(collab, app)
    assert app.app_id in cached_apps(s1)
    s0.stop()  # the home server dies

    def failing_open():
        try:
            yield from portal.open(app.app_id)
        except PortalError as exc:
            return exc.status

    # the relay resolves from the warm cache, the call to the dead peer
    # fails, and every cache entry homed there is dropped
    assert run(collab, failing_open()) == 500
    assert cached_apps(s1) == []
    assert s1.federation_metrics.get("peer_invalidations") >= 1


def test_deregister_reregister_then_select_succeeds(pair):
    """Regression: stale level-two caches must not break a later select."""
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)
    _warm_remote_cache(collab, app)
    s0.on_app_deregister(app.app_id)
    collab.sim.run(until=collab.sim.now + 1.0)
    assert cached_apps(s1) == []
    # a replacement registers at the same home server
    fresh = collab.add_app(0, SyntheticApp, "wave",
                           acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=collab.sim.now + 2.0)
    portal = collab.add_portal(1)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(fresh.app_id)
        yield from session.acquire_lock()
        return (yield from session.set_param("gain", 7.0))

    assert run(collab, scenario()) == 7.0
    assert fresh.gain.value == 7.0


def test_add_peer_with_changed_ref_invalidates(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)
    _warm_remote_cache(collab, app)
    assert app.app_id in cached_apps(s1)
    # re-adding under the same reference keeps the caches warm
    s1.add_peer(s0.name, s1.peers[s0.name])
    assert app.app_id in cached_apps(s1)
    # a changed reference (restarted peer) drops everything homed there
    s1.add_peer(s0.name, s1.corba_ref)
    assert cached_apps(s1) == []
    assert s1.federation_metrics.get("peer_invalidations") >= 1


def test_peer_stub_unknown_peer_raises(pair):
    collab, _app = pair
    s1 = collab.server_of(1)
    with pytest.raises(OrbError):
        s1.registry.peer_stub("ghost-server")


def test_check_peer_liveness(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)
    _warm_remote_cache(collab, app)
    assert run(collab, s1.registry.check_peer(s0.name)) is True
    s0.stop()
    assert run(collab, s1.registry.check_peer(s0.name)) is False
    assert cached_apps(s1) == []


def test_discover_peers_without_trader_surfaces_the_skip():
    """A server deployed traderless (fleet mode) must log and count the
    skipped discovery instead of silently returning no peers."""
    from repro.federation.registry import PeerRegistry
    from repro.metrics import FederationMetrics
    from repro.net import Network
    from repro.obs import StructuredLog
    from repro.orb import Orb
    from repro.sim import Simulator
    from tests.conftest import drive

    sim = Simulator()
    net = Network(sim)
    net.add_host("h0")
    registry = PeerRegistry(Orb(net.hosts["h0"]), "s0",
                            metrics=FederationMetrics())
    registry.log = StructuredLog(server="s0")
    assert drive(sim, registry.discover_peers()) == []
    assert registry.metrics.get("discovery_skipped") == 1
    records = registry.log.records(event="fed_discovery_skipped")
    assert records and records[0]["reason"] == "no trader_ref"
