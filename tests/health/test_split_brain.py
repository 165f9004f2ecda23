"""Regression: one liveness model across federation subsystems.

Before the health plane, ``PeerRegistry`` (liveness pings, relays) and
``SubscriptionManager`` (poll-fallback rounds) each tracked peer failures
privately, so one subsystem could be routing away from a peer the other
still trusted — a split-brain inside a single server.  Both now feed
``HealthModel`` through the monitor, so a peer's status is one fact.
"""

import pytest

from repro.core.deployment import build_collaboratory
from repro.health import STATUS_HEALTHY
from repro.orb import CommFailure, RemoteException


@pytest.fixture()
def pair():
    c = build_collaboratory(2, apps_hosts_per_domain=1,
                            client_hosts_per_domain=1)
    c.run_bootstrap()
    yield c
    c.stop()


def test_registry_failures_visible_to_poll_routing(pair):
    a, b = pair.server_of(0), pair.server_of(1)
    # the relay/ping path books CommFailures through the one rule...
    for _ in range(3):
        a.health.note_call(b.name, CommFailure("link down"))
    # ...and BOTH consumers see the same verdict: the registry's own
    # routing gate and the health monitor the poll loop consults.
    assert a.registry.peer_unhealthy(b.name)
    assert a.health.is_unhealthy_peer(b.name)


def test_poll_failures_visible_to_registry_routing(pair):
    a, b = pair.server_of(0), pair.server_of(1)
    # a poll round's relay is booked through the same note_call rule
    for _ in range(3):
        a.health.note_call(b.name, CommFailure("poll timeout"))
    assert a.registry.peer_unhealthy(b.name)
    # recovery via ANY subsystem (here: a poll success) restores both
    a.health.note_call(b.name)
    a.health.note_call(b.name)
    assert not a.registry.peer_unhealthy(b.name)
    assert not a.health.is_unhealthy_peer(b.name)
    assert a.health.status_of(a.health.server_key(b.name)) == STATUS_HEALTHY


def test_remote_exceptions_are_proof_of_liveness(pair):
    """An application-level error from a peer is an *answer*: it must not
    count toward marking the peer dead (the false-positive that used to
    flip routing away from healthy peers)."""
    a, b = pair.server_of(0), pair.server_of(1)
    a.health.note_call(b.name)
    for _ in range(10):
        a.health.note_call(b.name, RemoteException("LockError", "app busy"))
    assert not a.registry.peer_unhealthy(b.name)
    assert a.health.status_of(a.health.server_key(b.name)) == STATUS_HEALTHY


def test_dead_peer_detected_through_live_traffic(pair):
    """Killing a server makes every subsystem's calls fail; the shared
    model converges without any dedicated prober."""
    a, b = pair.server_of(0), pair.server_of(1)
    a.peer_call_timeout = 0.5
    b.stop()

    def probe():
        for _ in range(4):
            yield from a.registry.check_peer(b.name)

    proc = pair.sim.spawn(probe(), name="probe")
    pair.sim.run(until=proc)
    assert a.health.is_unhealthy_peer(b.name)
    assert a.registry.peer_unhealthy(b.name)
