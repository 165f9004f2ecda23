"""Tests for the §6.3 extensions: central user directory, resource
policies/accounting, and poll-mode server-to-server updates."""

import pytest

from repro import AppConfig, PortalError, build_collaboratory
from repro.apps import SyntheticApp
from repro.core.policies import (
    PolicyManager,
    PolicyViolation,
    ResourcePolicy,
    TokenBucket,
)
from repro.obs.accounting import CostVector
from repro.pipeline import PLANE_ORB


def cfg():
    return AppConfig(steps_per_phase=2, step_time=0.01,
                     interaction_window=0.05, command_service_time=0.001)


def run(collab, gen):
    return collab.sim.run(until=collab.sim.spawn(gen))


# ------------------------- directory-backed login ---------------------------

def test_directory_backed_login_end_to_end():
    collab = build_collaboratory(3, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 use_directory=True)
    collab.run_bootstrap()
    app = collab.add_app(2, SyntheticApp, "far-app",
                         acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=3.0)
    assert collab.directory.app_count() == 1
    portal = collab.add_portal(0)

    def scenario():
        apps = yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        yield from session.acquire_lock()
        value = yield from session.set_param("gain", 4.0)
        return (len(apps), value)

    n_apps, value = run(collab, scenario())
    assert n_apps == 1
    assert value == 4.0


def test_directory_login_rejects_unknown_user():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 use_directory=True)
    collab.run_bootstrap()
    collab.add_app(1, SyntheticApp, "app", acl={"alice": "write"},
                   config=cfg())
    collab.sim.run(until=3.0)
    portal = collab.add_portal(0)

    def scenario():
        try:
            yield from portal.login("eve")
        except PortalError as exc:
            return exc.status

    assert run(collab, scenario()) == 401


def test_directory_withdraws_on_server_shutdown():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 use_directory=True)
    collab.run_bootstrap()
    survivor = collab.add_app(0, SyntheticApp, "survivor",
                              acl={"alice": "write"}, config=cfg())
    collab.add_app(1, SyntheticApp, "doomed", acl={"alice": "write"},
                   config=cfg())
    collab.sim.run(until=3.0)
    assert collab.directory.app_count() == 2
    run(collab, collab.server_of(1).shutdown())
    assert collab.directory.app_count() == 1
    # a login at the surviving domain sees the withdrawal: only the
    # surviving application remains visible network-wide
    portal = collab.add_portal(0)

    def scenario():
        return (yield from portal.login("alice"))

    apps = run(collab, scenario())
    assert [a["app_id"] for a in apps] == [survivor.app_id]


def test_directory_withdraws_on_app_stop():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 use_directory=True)
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "finite", acl={"u": "write"},
                         config=AppConfig(steps_per_phase=5, step_time=0.01,
                                          interaction_window=0.01,
                                          total_steps=10))
    collab.sim.run(until=6.0)
    assert app.state == "stopped"
    assert collab.directory.app_count() == 0


# ---------------------------- policies ----------------------------------

def test_token_bucket_basic():
    b = TokenBucket(rate=10.0, burst=5.0)
    # burst capacity available immediately
    assert b.refill(0.0) == 5.0
    b.take(5.0)
    assert b.refill(0.0) == 0.0
    # refills over time, never beyond the burst
    assert b.refill(0.1) == pytest.approx(1.0)
    assert b.refill(10.0) == 5.0


def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate=0, burst=1)


def test_resource_policy_requests_axis():
    p = ResourcePolicy(max_requests_per_s=2.0, burst_seconds=1.0)
    assert p.admit(0.0)
    assert p.admit(0.0)
    assert not p.admit(0.0)
    assert p.admit(1.0)  # refilled


def test_resource_policy_bytes_axis():
    p = ResourcePolicy(max_bytes_per_s=100.0, burst_seconds=1.0)
    assert p.admit(0.0, nbytes=80)
    assert not p.admit(0.0, nbytes=80)
    assert p.admit(1.0, nbytes=80)


def test_resource_policy_unlimited():
    p = ResourcePolicy()
    assert all(p.admit(0.0, nbytes=10 ** 6) for _ in range(100))


def test_resource_policy_refusal_spends_nothing():
    # The byte bucket refuses a 100-byte request; the request bucket must
    # keep its one token, so a 1-byte request at the same instant fits.
    p = ResourcePolicy(max_requests_per_s=1.0, max_bytes_per_s=10.0,
                       burst_seconds=1.0)
    assert not p.admit(0.0, nbytes=100)
    assert p.admit(0.0, nbytes=1)
    assert not p.admit(0.0, nbytes=1)  # now the request token is spent


def test_policy_manager_default_and_specific():
    mgr = PolicyManager()
    mgr.check("anyone", 0.0)  # no policy: always admitted
    mgr.check("anyone", 0.0)
    mgr.set_policy("peer-1", ResourcePolicy(max_requests_per_s=1.0,
                                            burst_seconds=1.0))
    mgr.check("peer-1", 0.0)
    with pytest.raises(PolicyViolation):
        mgr.check("peer-1", 0.0)
    mgr.check("anyone", 0.0)  # one principal's policy binds no other


def peer_usage(collab, peer, operation):
    """The cost ledger's ORB-plane usage of ``operation`` by ``peer``'s host."""
    total = CostVector()
    for (principal, _app, plane, op), vec in collab.ledger.entries.items():
        if (principal, plane, op) == (peer.host.name, PLANE_ORB, operation):
            total.add(vec)
    return total


def test_server_enforces_peer_policy_end_to_end():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "guarded",
                         acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=3.0)
    s0, s1 = collab.server_of(0), collab.server_of(1)
    # clamp the peer's host (d1-server) to ~1 request/s at s0
    s0.policies.set_policy(s1.host.name, ResourcePolicy(
        max_requests_per_s=1.0, burst_seconds=1.0))

    def hammer():
        ok, denied = 0, 0
        from repro.orb import RemoteException
        for _ in range(6):
            try:
                yield from s1.orb.invoke(s1.peers[s0.name],
                                         "get_active_applications")
                ok += 1
            except RemoteException as exc:
                assert exc.exc_type == "PolicyViolation"
                denied += 1
        return (ok, denied)

    ok, denied = run(collab, hammer())
    assert ok >= 1
    assert denied >= 1
    # the rejections are counted where every request is: s0's pipeline
    # metrics and the deployment's cost ledger
    assert s0.pipeline_metrics.error_types(PLANE_ORB)["PolicyViolation"] \
        == denied
    vec = peer_usage(collab, s1, "get_active_applications")
    assert (vec.requests, vec.errors) == (ok + denied, denied)


def test_server_accounts_peer_usage_by_default():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    s0, s1 = collab.server_of(0), collab.server_of(1)

    def probe():
        yield from s1.orb.invoke(s1.peers[s0.name], "ping")

    run(collab, probe())
    assert peer_usage(collab, s1, "ping").requests >= 1


# --------------------------- poll-mode updates -------------------------------

def test_poll_mode_delivers_remote_updates():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 update_mode="poll",
                                 update_poll_interval=0.2)
    collab.run_bootstrap()
    app = collab.add_app(1, SyntheticApp, "polled",
                         acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=3.0)
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        yield from portal.open(app.app_id)
        yield portal.sim.timeout(2.0)
        yield from portal.poll(max_items=64)
        return len(portal.updates)

    n_updates = run(collab, scenario())
    assert n_updates >= 2
    # push machinery unused: the home proxy has no remote subscribers
    home = collab.server_of(1)
    assert home.local_proxies[app.app_id].remote_subscribers == set()
    assert home.stats["remote_update_pushes"] == 0


def test_poll_mode_validation():
    from repro.core.deployment import build_collaboratory as bc
    with pytest.raises(ValueError):
        bc(1, apps_hosts_per_domain=1, client_hosts_per_domain=1,
           update_mode="carrier-pigeon")
