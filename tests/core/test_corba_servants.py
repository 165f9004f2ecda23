"""Tests for the two CORBA interface levels over a live server pair."""

import pytest

from repro import AppConfig, build_collaboratory
from repro.apps import SyntheticApp
from repro.orb import ObjectNotFound, RemoteException


def cfg():
    return AppConfig(steps_per_phase=2, step_time=0.01,
                     interaction_window=0.05, command_service_time=0.001)


@pytest.fixture
def pair():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "wave",
                         acl={"alice": "write", "bob": "read"},
                         config=cfg())
    collab.sim.run(until=3.0)
    return collab, app


def run(collab, gen):
    return collab.sim.run(until=collab.sim.spawn(gen))


def test_ping_and_get_users(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)

    def probe():
        name = yield from s1.orb.invoke(s1.peers[s0.name], "ping")
        users = yield from s1.orb.invoke(s1.peers[s0.name], "get_users")
        return (name, users)

    name, users = run(collab, probe())
    assert name == s0.name
    assert users == []


def test_authenticate_and_list_filters_by_user(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)

    def probe():
        alice = yield from s1.orb.invoke(
            s1.peers[s0.name], "authenticate_and_list", "alice")
        eve = yield from s1.orb.invoke(
            s1.peers[s0.name], "authenticate_and_list", "eve")
        return (alice, eve)

    alice, eve = run(collab, probe())
    assert len(alice) == 1
    assert alice[0]["app_id"] == app.app_id
    assert alice[0]["privilege"] == "write"
    assert alice[0]["server"] == s0.name
    assert eve == []


def test_get_active_applications(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)

    def probe():
        return (yield from s1.orb.invoke(
            s1.peers[s0.name], "get_active_applications"))

    apps = run(collab, probe())
    assert [a["app_id"] for a in apps] == [app.app_id]


def test_get_corba_proxy_unknown_app(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)

    def probe():
        try:
            yield from s1.orb.invoke(s1.peers[s0.name], "get_corba_proxy",
                                     "ghost#a9")
        except ObjectNotFound:
            return "not-found"

    assert run(collab, probe()) == "not-found"


def test_corba_proxy_interface_and_status(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)

    def probe():
        ref = yield from s1.orb.invoke(s1.peers[s0.name],
                                       "get_corba_proxy", app.app_id)
        info = yield from s1.orb.invoke(ref, "get_interface", "bob")
        status = yield from s1.orb.invoke(ref, "get_status")
        return (info, status)

    info, status = run(collab, probe())
    assert info["privilege"] == "read"
    assert info["app_id"] == app.app_id
    param_names = [p["name"] for p in info["interface"]["parameters"]]
    assert "gain" in param_names
    assert status["active"] is True


def test_corba_proxy_interface_denies_stranger(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)

    def probe():
        ref = yield from s1.orb.invoke(s1.peers[s0.name],
                                       "get_corba_proxy", app.app_id)
        try:
            yield from s1.orb.invoke(ref, "get_interface", "eve")
        except RemoteException as exc:
            return exc.exc_type

    assert run(collab, probe()) == "SecurityError"


def test_lock_relay_via_corba_proxy(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)

    def probe():
        ref = yield from s1.orb.invoke(s1.peers[s0.name],
                                       "get_corba_proxy", app.app_id)
        first = yield from s1.orb.invoke(ref, "acquire_lock", "remote:c1")
        second = yield from s1.orb.invoke(ref, "acquire_lock", "remote:c2")
        holder = yield from s1.orb.invoke(ref, "lock_holder")
        yield from s1.orb.invoke(ref, "release_lock", "remote:c1")
        next_holder = yield from s1.orb.invoke(ref, "lock_holder")
        return (first, second, holder, next_holder)

    first, second, holder, next_holder = run(collab, probe())
    assert first == "granted"
    assert second == "queued"
    assert holder == "remote:c1"
    assert next_holder == "remote:c2"
    # authoritative state lives at the home server (§5.2.4)
    assert s0.locks.holder_of(app.app_id) == "remote:c2"
    assert s1.locks.holder_of(app.app_id) is None


def test_subscribe_server_receives_pushes(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)

    def subscribe():
        ref = yield from s1.orb.invoke(s1.peers[s0.name],
                                       "get_corba_proxy", app.app_id)
        yield from s1.orb.invoke(ref, "subscribe_server", s1.name)

    run(collab, subscribe())
    # a local client session at s1 subscribed to the app receives pushes
    session = s1.collab.create_session("bob")
    s1.collab.subscribe(session.client_id, app.app_id)
    before = len(session.buffer)
    collab.sim.run(until=collab.sim.now + 2.0)
    assert len(session.buffer) > before
    assert s0.stats["remote_update_pushes"] > 0


def test_deliver_to_client_cross_server(pair):
    collab, app = pair
    s0, s1 = collab.server_of(0), collab.server_of(1)
    session = s1.collab.create_session("bob")

    def push():
        from repro.wire import ControlMessage
        note = ControlMessage("custom_event", detail=42,
                              msg_id=collab.sim.next_id("msg"))
        ok = yield from s0.orb.invoke(
            s0.peers[s1.name], "deliver_to_client", session.client_id, note)
        return ok

    assert run(collab, push()) is True
    assert len(session.buffer) == 1
