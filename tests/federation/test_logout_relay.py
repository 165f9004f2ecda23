"""A remote lock holder's exit reaches the host server (§5.2.4).

The steering lock of an application lives at its host server only; a
client of another server that took it through a relay has to lose it
there when it leaves — by ``/master/logout`` or by its HTTP session
timing out — or the lock is held for ever and every waiter starves.
"""

import pytest

from repro import build_collaboratory
from repro.apps import SyntheticApp
from repro.directory import home_server_of

from tests.federation.conftest import cfg, run


def journalled(server, kind):
    return [r for r in server.journal.wal.tail(0) if r.kind == kind]


def leave(collab, portal, exit_path):
    """End ``portal``'s session at domain 1's server, by ``exit_path``."""
    if exit_path == "logout":
        run(collab, portal.logout())
        return
    # the browser just goes away: the next request its server handles
    # once the HTTP session has timed out sweeps the session out
    container = collab.server_of(1).container
    container.sessions.timeout = 2.0
    collab.sim.run(until=collab.sim.now + 2.2)
    run(collab, collab.add_portal(1).login("alice"))
    assert container.sessions_expired == 1


@pytest.mark.parametrize("exit_path", ["logout", "expiry"])
def test_remote_holders_exit_grants_the_waiter_at_the_host(pair, exit_path):
    collab, app = pair
    host, relay = collab.server_of(0), collab.server_of(1)
    host.security.acl_for(app.app_id).grant("bob", "write")
    alice, bob = collab.add_portal(1), collab.add_portal(0)

    def both_ask():
        yield from alice.login("alice")
        a_sess = yield from alice.open(app.app_id)
        assert (yield from a_sess.acquire_lock()) == "granted"
        yield from bob.login("bob")
        b_sess = yield from bob.open(app.app_id)
        assert (yield from b_sess.acquire_lock()) == "queued"

    run(collab, both_ask())
    holder = alice.client_id  # the portal forgets it at logout
    assert holder.startswith(relay.name)
    assert host.locks.holder_of(app.app_id) == holder

    leave(collab, alice, exit_path)
    collab.sim.run(until=collab.sim.now + 1.0)

    assert host.locks.holder_of(app.app_id) == bob.client_id
    assert host.locks.queue_length(app.app_id) == 0
    # the host heard within a WAN round trip plus service time of the exit
    (left,) = [r for r in journalled(relay, "collab.drop")
               if r.data["client_id"] == holder]
    (drop,) = [r for r in journalled(host, "locks.drop")
               if r.data["client_id"] == holder]
    round_trip = 2 * collab.net.path_latency(relay.name, host.name)
    assert left.at < drop.at <= left.at + round_trip + 0.05
    # and told the waiter, who now drives
    run(collab, bob.poll(max_items=10_000))
    assert [m.holder for m in bob.lock_events] == [bob.client_id]

    # the drop is journalled: a restarted host recovers the post-drop table
    table = host.locks.snapshot_state()
    host.stop()
    restarted, _report = collab.restart_server(host.name)
    assert restarted.locks.snapshot_state() == table
    collab.stop()


def test_one_relay_per_host_server():
    collab = build_collaboratory(3, apps_hosts_per_domain=2,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    apps = [collab.add_app(domain, SyntheticApp, name,
                           acl={"alice": "write"}, config=cfg())
            for domain, name in ((0, "wave"), (0, "heat"), (2, "flow"))]
    collab.sim.run(until=3.0)
    alice = collab.add_portal(1)

    def take_all():
        yield from alice.login("alice")
        for app in apps:
            session = yield from alice.open(app.app_id)
            assert (yield from session.acquire_lock()) == "granted"

    run(collab, take_all())
    holder = alice.client_id
    run(collab, alice.logout())
    collab.sim.run(until=collab.sim.now + 1.0)
    for domain in (0, 2):
        host = collab.server_of(domain)
        assert [r.data for r in journalled(host, "locks.drop")] == [
            {"client_id": holder}]
    for app in apps:
        host = collab.servers[home_server_of(app.app_id)]
        assert host.locks.holder_of(app.app_id) is None
    collab.stop()


def test_logout_without_a_remote_lock_sends_nothing_more():
    """A session that never asked for a remote lock pays nothing for the
    relay: its logout is the HTTP exchange plus ``detach_idle``'s one
    unsubscribe call, as at the parent commit."""
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    # one compute step outlasts the test: no update crosses the network
    app = collab.add_app(0, SyntheticApp, "wave", acl={"alice": "write"},
                         config=cfg(step_time=1000.0))
    collab.sim.run(until=3.0)
    relay = collab.server_of(1)
    alice = collab.add_portal(1)

    def browse():
        yield from alice.login("alice")
        session = yield from alice.open(app.app_id)
        yield from session.lock_holder()  # a relayed read is not an ask

    run(collab, browse())
    frames = collab.net.trace.total
    before = frames.messages
    collab.sim.run(until=collab.sim.now + 1.0)
    assert frames.messages == before  # the network is silent
    run(collab, alice.logout())
    collab.sim.run(until=collab.sim.now + 1.0)
    assert relay.federation_metrics.get("unsubscribes") == 1
    # request and response on the LAN, unsubscribe and its reply on the WAN
    assert frames.messages - before == 4
    collab.stop()
