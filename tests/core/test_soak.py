"""Soak test: a busy multi-domain deployment held to system invariants.

Three domains, several applications, steering and monitoring clients in
every domain, one minute of virtual time.  Afterwards the whole system is
audited: every submitted command received exactly one response or error,
locks ended balanced, no frames hit unbound ports, collaboration buffers
drained, and traffic accounting is self-consistent.
"""

import pytest

from repro import AppConfig, build_collaboratory
from repro.apps import Heat2DApp, SyntheticApp
from repro.client import PortalError
from repro.pipeline import PLANE_ORB

DURATION = 40.0


def soak_config():
    return AppConfig(steps_per_phase=4, step_time=0.02,
                     interaction_window=0.05, command_service_time=0.002)


@pytest.fixture(scope="module")
def soaked():
    collab = build_collaboratory(3, apps_hosts_per_domain=2,
                                 client_hosts_per_domain=2)
    collab.run_bootstrap()
    apps = []
    acl = {"alice": "write", "bob": "write", "carol": "read"}
    for d in range(3):
        apps.append(collab.add_app(d, SyntheticApp, f"syn-{d}", acl=acl,
                                   config=soak_config()))
    apps.append(collab.add_app(0, Heat2DApp, "cfd", n=24, acl=acl,
                               config=soak_config()))
    collab.sim.run(until=3.0)
    assert all(a.registered for a in apps)

    outcomes = {"steered": 0, "denied": 0, "responses": 0, "errors": 0}

    def steerer(domain, user, app, period):
        portal = collab.add_portal(domain)
        yield from portal.login(user)
        session = yield from portal.open(app.app_id)
        deadline = collab.sim.now + DURATION
        while collab.sim.now < deadline:
            got = yield from session.acquire_lock()
            if got == "granted":
                knob = ("gain" if isinstance(app, SyntheticApp)
                        else "diffusivity")
                value = 2.0 if knob == "gain" else 0.1
                try:
                    yield from session.set_param(knob, value)
                    outcomes["steered"] += 1
                    outcomes["responses"] += 1
                except PortalError:
                    outcomes["errors"] += 1
                yield from session.release_lock()
            else:
                outcomes["denied"] += 1
                yield from session.release_lock()  # withdraw from queue
            yield collab.sim.timeout(period)

    def monitor(domain, app, period):
        portal = collab.add_portal(domain)
        yield from portal.login("carol")
        yield from portal.open(app.app_id)
        deadline = collab.sim.now + DURATION
        while collab.sim.now < deadline:
            yield from portal.poll(max_items=64)
            yield collab.sim.timeout(period)
        return portal

    monitors = []
    for d in range(3):
        # steerers contend across domains on the same app (apps[0])
        collab.sim.spawn(steerer(d, "alice" if d % 2 == 0 else "bob",
                                 apps[0], 0.8 + 0.1 * d))
        collab.sim.spawn(steerer(d, "bob", apps[d], 1.1 + 0.1 * d))
        monitors.append(collab.sim.spawn(monitor(d, apps[d % 3], 0.5)))
    collab.sim.run(until=collab.sim.now + DURATION + 5.0)
    return collab, apps, outcomes, monitors


def test_soak_work_happened(soaked):
    collab, apps, outcomes, monitors = soaked
    assert outcomes["steered"] > 20
    assert outcomes["errors"] == 0


def test_soak_locks_end_balanced(soaked):
    collab, apps, outcomes, monitors = soaked
    for server in collab.servers.values():
        for app in apps:
            holder = server.locks.holder_of(app.app_id)
            queue = server.locks.queue_length(app.app_id)
            # steerers always release; nothing leaks
            assert queue == 0
            assert holder is None


def test_soak_no_frames_dropped(soaked):
    collab, apps, outcomes, monitors = soaked
    # frames to unbound ports would indicate routing/lifecycle bugs
    assert not collab.net.dropped
    assert collab.net.trace.dropped.messages == 0


def test_soak_no_client_buffer_overflow(soaked):
    collab, apps, outcomes, monitors = soaked
    for server in collab.servers.values():
        assert server.collab.dropped == 0


def test_soak_every_app_kept_updating(soaked):
    collab, apps, outcomes, monitors = soaked
    for app in apps:
        home = collab.servers[app.server_host]
        proxy = home.local_proxies[app.app_id]
        assert proxy.updates_received > DURATION / 0.5 * 0.5


def test_soak_monitors_saw_updates(soaked):
    collab, apps, outcomes, monitors = soaked
    for proc in monitors:
        portal = proc.value
        assert len(portal.updates) > 10


def test_soak_traffic_accounting_consistent(soaked):
    collab, apps, outcomes, monitors = soaked
    trace = collab.net.trace
    snap = trace.snapshot()
    assert snap["total_messages"] == trace.lan_messages + trace.wan_messages
    assert snap["total_bytes"] == trace.lan_bytes + trace.wan_bytes
    by_channel_total = sum(m for (m, b) in snap["by_channel"].values())
    assert by_channel_total == snap["total_messages"]


def test_soak_usage_ledger_populated(soaked):
    collab, apps, outcomes, monitors = soaked
    # peer-to-peer traffic was accounted per §6.3, in the cost ledger
    peer_hosts = {server.host.name for server in collab.servers.values()}
    total_peer_requests = sum(
        vec.requests
        for (principal, _app, plane, _op), vec in collab.ledger.entries.items()
        if principal in peer_hosts and plane == PLANE_ORB)
    assert total_peer_requests > 0
