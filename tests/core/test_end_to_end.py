"""End-to-end integration: full client → server → application round trips."""

import pytest

from repro import AppConfig, PortalError, build_collaboratory, build_single_server
from repro.apps import SyntheticApp


def fast_config(**kw):
    """Snappy lifecycle so tests converge quickly in virtual time."""
    defaults = dict(steps_per_phase=2, step_time=0.01,
                    interaction_window=0.05, command_service_time=0.001)
    defaults.update(kw)
    return AppConfig(**defaults)


@pytest.fixture
def single():
    collab = build_single_server()
    collab.run_bootstrap()
    return collab


def run(collab, gen):
    proc = collab.sim.spawn(gen)
    return collab.sim.run(until=proc)


def test_app_registers_and_gets_id(single):
    app = single.add_app(0, SyntheticApp, "wave", acl={"alice": "write"},
                         config=fast_config())
    single.sim.run(until=2.0)
    assert app.registered
    assert app.app_id == f"{single.domains[0].server.name}#a1"


def test_login_lists_accessible_apps(single):
    single.add_app(0, SyntheticApp, "mine", acl={"alice": "write"},
                   config=fast_config())
    single.add_app(0, SyntheticApp, "not-mine", acl={"bob": "write"},
                   config=fast_config())
    single.sim.run(until=2.0)
    portal = single.add_portal(0)

    def scenario():
        apps = yield from portal.login("alice")
        return apps

    apps = run(single, scenario())
    assert [a["name"] for a in apps] == ["mine"]
    assert apps[0]["privilege"] == "write"


def test_unknown_user_login_rejected(single):
    single.add_app(0, SyntheticApp, "app", acl={"alice": "write"},
                   config=fast_config())
    single.sim.run(until=2.0)
    portal = single.add_portal(0)

    def scenario():
        try:
            yield from portal.login("mallory")
        except PortalError as exc:
            return exc.status

    assert run(single, scenario()) == 401


def test_full_steering_roundtrip(single):
    app = single.add_app(0, SyntheticApp, "wave", acl={"alice": "write"},
                         config=fast_config())
    single.sim.run(until=2.0)
    portal = single.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        assert session.privilege == "write"
        lock = yield from session.acquire_lock()
        assert lock == "granted"
        new_value = yield from session.set_param("gain", 3.5)
        read_back = yield from session.get_param("gain")
        counter = yield from session.read_sensor("counter")
        return (new_value, read_back, counter)

    new_value, read_back, counter = run(single, scenario())
    assert new_value == 3.5
    assert read_back == 3.5
    assert counter > 0
    assert app.gain.value == 3.5


def test_read_user_cannot_steer(single):
    app = single.add_app(0, SyntheticApp, "wave",
                         acl={"alice": "write", "bob": "read"},
                         config=fast_config())
    single.sim.run(until=2.0)
    portal = single.add_portal(0)

    def scenario():
        yield from portal.login("bob")
        session = yield from portal.open(app.app_id)
        value = yield from session.get_param("gain")  # reads are fine
        try:
            yield from session.set_param("gain", 9.0)
        except PortalError as exc:
            return (value, exc.status)

    value, status = run(single, scenario())
    assert value == 1.0
    assert status == 403  # forbidden without write privilege


def test_steering_without_lock_conflicts(single):
    app = single.add_app(0, SyntheticApp, "wave", acl={"alice": "write"},
                         config=fast_config())
    single.sim.run(until=2.0)
    portal = single.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        try:
            yield from session.set_param("gain", 9.0)
        except PortalError as exc:
            return exc.status

    assert run(single, scenario()) == 409  # conflict: no lock held


def test_updates_arrive_via_poll(single):
    app = single.add_app(0, SyntheticApp, "wave", acl={"alice": "write"},
                         config=fast_config())
    single.sim.run(until=2.0)
    portal = single.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        yield from portal.open(app.app_id)
        # Let the app push a few updates, then poll.
        yield portal.sim.timeout(1.0)
        yield from portal.poll(max_items=64)
        return len(portal.updates)

    assert run(single, scenario()) >= 2


def test_pause_and_resume(single):
    app = single.add_app(0, SyntheticApp, "wave", acl={"alice": "write"},
                         config=fast_config())
    single.sim.run(until=2.0)
    portal = single.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        yield from session.acquire_lock()
        yield from session.pause()
        step_at_pause = app.step_index
        yield portal.sim.timeout(2.0)
        stuck = app.step_index
        yield from session.resume()
        yield portal.sim.timeout(1.0)
        return (step_at_pause, stuck, app.step_index)

    at_pause, stuck, after = run(single, scenario())
    assert stuck <= at_pause + 2  # paused: essentially no progress
    assert after > stuck  # resumed: progress again


def test_remote_app_via_peer_servers():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    app = collab.add_app(1, SyntheticApp, "remote-wave",
                         acl={"alice": "write"}, config=fast_config())
    collab.sim.run(until=3.0)
    assert app.registered
    portal = collab.add_portal(0)  # client in domain 0, app in domain 1

    def scenario():
        apps = yield from portal.login("alice")
        assert len(apps) == 1
        assert apps[0]["server"] == collab.domains[1].server.name
        session = yield from portal.open(app.app_id)
        lock = yield from session.acquire_lock()
        value = yield from session.set_param("gain", 7.0)
        # updates from the remote app should flow through the P2P push
        yield portal.sim.timeout(1.5)
        yield from portal.poll(max_items=64)
        return (lock, value, len(portal.updates))

    lock, value, n_updates = run(collab, scenario())
    assert lock == "granted"
    assert value == 7.0
    assert app.gain.value == 7.0
    assert n_updates >= 1


def test_collaboration_group_sees_responses(single):
    app = single.add_app(0, SyntheticApp, "wave",
                         acl={"alice": "write", "bob": "read"},
                         config=fast_config())
    single.sim.run(until=2.0)
    alice = single.add_portal(0)
    bob = single.add_portal(0)

    def scenario():
        yield from alice.login("alice")
        yield from bob.login("bob")
        a_sess = yield from alice.open(app.app_id)
        yield from bob.open(app.app_id)
        yield from a_sess.acquire_lock()
        yield from a_sess.set_param("gain", 5.0)
        yield alice.sim.timeout(0.5)
        yield from bob.poll(max_items=64)
        # bob's portal saw alice's response through group sharing
        return len(bob._responses) + sum(
            1 for m in bob.notices if m.type_name() == "ResponseMessage")

    assert run(single, scenario()) >= 1


def test_chat_between_clients(single):
    app = single.add_app(0, SyntheticApp, "wave",
                         acl={"alice": "write", "bob": "read"},
                         config=fast_config())
    single.sim.run(until=2.0)
    alice = single.add_portal(0)
    bob = single.add_portal(0)

    def scenario():
        yield from alice.login("alice")
        yield from bob.login("bob")
        a_sess = yield from alice.open(app.app_id)
        yield from bob.open(app.app_id)
        delivered = yield from a_sess.chat("hello bob")
        yield alice.sim.timeout(0.2)
        yield from bob.poll(max_items=64)
        return (delivered, [(m.author, m.text) for m in bob.chat_log])

    delivered, chats = run(single, scenario())
    assert delivered == 1
    assert chats == [("alice", "hello bob")]


@pytest.mark.parametrize("relayed", [False, True], ids=["local", "relayed"])
def test_replay_interactions(relayed):
    """§5.2.5: a client reads an application's archive the same way whether
    the application is homed on its own server or, relayed through the
    peer's CorbaProxy, on another domain's."""
    if relayed:
        collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                     client_hosts_per_domain=1)
    else:
        collab = build_single_server()
    collab.run_bootstrap()
    app = collab.add_app(1 if relayed else 0, SyntheticApp, "wave",
                         acl={"alice": "write"}, config=fast_config())
    collab.sim.run(until=3.0)
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        assert session.http is portal.http  # no redirect: d0 serves it
        yield from session.acquire_lock()
        yield from session.set_param("gain", 2.0)
        yield from session.get_param("gain")
        joined = yield from session.join_group("viz")
        left = yield from session.leave_group("viz")
        records = yield from session.replay_interactions()
        app_log = yield from session.replay_app_log()
        return [r["command"] for r in records], app_log, joined, left

    home = collab.domains[1 if relayed else 0].server
    assert app.app_id.startswith(f"{home.name}#")
    commands, app_log, joined, left = run(collab, scenario())
    assert commands == ["set_param", "get_param"]
    assert app_log
    assert joined == [portal.client_id]
    assert left == []
