"""SubscriptionManager: push unsubscribe lifecycle and poll fallback."""

from repro import build_collaboratory
from repro.apps import SyntheticApp
from repro.bench.faults import Kill, Restart, inject
from repro.health import STATUS_HEALTHY, STATUS_UNHEALTHY

from tests.federation.conftest import cfg, run


def live_pollers(server):
    """Poll-mode pollers of ``server`` still running."""
    return sum(p.is_alive for p in server.subscriptions._pollers.values())


def _open_app(collab, app, domain):
    portal = collab.add_portal(domain)

    def scenario():
        yield from portal.login("alice")
        yield from portal.open(app.app_id)

    run(collab, scenario())
    return portal


def test_unsubscribe_when_last_local_subscriber_leaves(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)
    first = _open_app(collab, app, 1)
    second = _open_app(collab, app, 1)
    proxy = s0.local_proxies[app.app_id]
    assert s1.name in proxy.remote_subscribers

    run(collab, first.logout())
    collab.sim.run(until=collab.sim.now + 1.0)
    # one local subscriber remains → the push subscription stays
    assert s1.name in proxy.remote_subscribers
    assert s1.federation_metrics.get("unsubscribes") == 0

    run(collab, second.logout())
    collab.sim.run(until=collab.sim.now + 1.0)
    # last local subscriber gone → s1 unsubscribed itself at the home
    assert s1.name not in proxy.remote_subscribers
    assert s1.federation_metrics.get("unsubscribes") == 1
    # the home server no longer pushes updates for dead subscribers
    pushed = s0.stats["remote_update_pushes"]
    collab.sim.run(until=collab.sim.now + 2.0)
    assert s0.stats["remote_update_pushes"] == pushed


def test_logout_does_not_unsubscribe_local_apps(pair):
    collab, app = pair
    s0 = collab.server_of(0)
    portal = _open_app(collab, app, 0)  # same domain: app is local
    run(collab, portal.logout())
    collab.sim.run(until=collab.sim.now + 1.0)
    assert s0.federation_metrics.get("unsubscribes") == 0


def test_push_subscribes_counted(pair):
    collab, app = pair
    s1 = collab.server_of(1)
    _open_app(collab, app, 1)
    assert s1.federation_metrics.get("subscribes") >= 1


def test_staleness_recorded_for_pushed_updates(pair):
    collab, app = pair
    s1 = collab.server_of(1)
    _open_app(collab, app, 1)
    collab.sim.run(until=collab.sim.now + 2.0)
    count, _total = s1.federation_metrics._staleness[app.app_id]
    assert count >= 1
    snapshot = s1.federation_metrics.snapshot()
    assert snapshot[f"staleness_ms[{app.app_id}]"] >= 0.0


def _poll_collab():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 update_mode="poll",
                                 update_poll_interval=0.2)
    for server in collab.servers.values():
        server.peer_call_timeout = 1.0
    collab.run_bootstrap()
    app = collab.add_app(1, SyntheticApp, "polled",
                         acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=3.0)
    return collab, app


def test_poll_mode_counts_rounds_and_delivers():
    collab, app = _poll_collab()
    s0 = collab.server_of(0)
    portal = _open_app(collab, app, 0)
    collab.sim.run(until=collab.sim.now + 2.0)
    assert s0.federation_metrics.get("pollers_started") == 1
    assert s0.federation_metrics.get("poll_rounds") >= 2
    assert live_pollers(s0) == 1

    def drain():
        yield from portal.poll(max_items=64)
        return len(portal.updates)

    assert run(collab, drain()) >= 2
    # polled updates record staleness too
    count, _total = s0.federation_metrics._staleness[app.app_id]
    assert count >= 1
    assert (f"staleness_ms[{app.app_id}]"
            in s0.federation_metrics.snapshot())


def test_poll_failover_counted_when_home_dies():
    collab, app = _poll_collab()
    s0 = collab.server_of(0)
    _open_app(collab, app, 0)
    collab.sim.run(until=collab.sim.now + 1.0)
    collab.server_of(1).stop()
    collab.sim.run(until=collab.sim.now + 3.0)
    assert s0.federation_metrics.get("poll_failovers") >= 1


def test_poller_exits_after_idle_rounds():
    collab, app = _poll_collab()
    s0 = collab.server_of(0)
    portal = _open_app(collab, app, 0)
    run(collab, portal.logout())
    # poller exits after three idle rounds once local interest is gone
    collab.sim.run(until=collab.sim.now + 2.0)
    assert live_pollers(s0) == 0


def test_a_stopped_server_polls_no_more():
    collab, app = _poll_collab()
    s0 = collab.server_of(0)
    _open_app(collab, app, 0)
    collab.sim.run(until=collab.sim.now + 1.0)
    assert live_pollers(s0) == 1
    s0.stop()
    rounds = s0.federation_metrics.get("poll_rounds")
    collab.sim.run(until=collab.sim.now + 2.0)
    assert live_pollers(s0) == 0
    assert s0.federation_metrics.get("poll_rounds") == rounds


def test_poll_outcomes_are_booked_once_and_a_dead_home_stays_down():
    """The poller books nothing itself: a round is its relay's one booking.
    While the home is down it skips three rounds in four and spends the
    fourth on a real ping, so the dead home never reads healthy again
    (an eager fail-fast, raised without contacting anyone, is no proof
    of life) — and a restarted home is re-admitted by those pings."""
    collab, app = _poll_collab()
    s0, home = collab.server_of(0), collab.server_of(1).name
    _open_app(collab, app, 0)
    peer = s0.health.model.component(s0.health.server_key(home))
    metrics = s0.federation_metrics

    rounds, successes = metrics.get("poll_rounds"), peer.successes
    collab.sim.run(until=collab.sim.now + 2.0)
    polled = metrics.get("poll_rounds") - rounds
    assert polled >= 5
    assert peer.successes - successes == polled

    injector, landed = inject(collab, [Kill(home, at=1.0),
                                       Restart(home, at=14.0)])
    collab.sim.run(until=injector)
    killed = landed[Kill(home, at=1.0)][0]
    restarted = landed[Restart(home, at=14.0)][0]
    down = [(when, old, new) for when, old, new in peer.transitions
            if killed <= when <= restarted]
    assert (STATUS_UNHEALTHY in [new for _, _, new in down])
    assert not [t for t in down if t[1:] == (STATUS_UNHEALTHY,
                                             STATUS_HEALTHY)], down
    assert peer.status == STATUS_UNHEALTHY

    rounds = metrics.get("poll_rounds")
    collab.sim.run(until=collab.sim.now + 6.0)
    assert s0.health.status_of(s0.health.server_key(home)) == STATUS_HEALTHY
    assert metrics.get("poll_rounds") > rounds
