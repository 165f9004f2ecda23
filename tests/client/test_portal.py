"""Portal-side behaviours: message filing, groups, views, logout, errors."""

import pytest

from repro import AppConfig, PortalError, build_single_server
from repro.apps import SyntheticApp
from repro.web.client import HttpError


def fast_config():
    return AppConfig(steps_per_phase=2, step_time=0.01,
                     interaction_window=0.05, command_service_time=0.001)


@pytest.fixture
def site():
    collab = build_single_server()
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "wave",
                         acl={"alice": "write", "bob": "read"},
                         config=fast_config())
    collab.sim.run(until=2.0)
    return collab, app


def run(collab, gen):
    return collab.sim.run(until=collab.sim.spawn(gen))


def test_portal_requires_login(site):
    collab, app = site
    portal = collab.add_portal(0)
    with pytest.raises(PortalError):
        portal._cid()


def test_open_unknown_app_fails(site):
    collab, app = site
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        try:
            yield from portal.open("d0-server#a999")
        except PortalError as exc:
            return exc.status

    assert run(collab, scenario()) == 403


def test_list_apps_refreshes(site):
    collab, app = site
    portal = collab.add_portal(0)

    def scenario():
        first = yield from portal.login("alice")
        # a second app registers while alice is logged in
        collab.add_app(0, SyntheticApp, "late-app",
                       acl={"alice": "read"}, config=fast_config())
        yield portal.sim.timeout(2.0)
        body = yield from portal.http.get(
            "/master/apps", {"client_id": portal.client_id})
        return (len(first), len(body["apps"]))

    assert run(collab, scenario()) == (1, 2)


def test_messages_filed_by_type(site):
    collab, app = site
    alice = collab.add_portal(0)
    bob = collab.add_portal(0)

    def scenario():
        yield from alice.login("alice")
        yield from bob.login("bob")
        a_sess = yield from alice.open(app.app_id)
        b_sess = yield from bob.open(app.app_id)
        yield from a_sess.chat("hello")
        yield from a_sess.draw("circle", [[1, 2], [3, 4]])
        yield collab.sim.timeout(1.0)
        yield from bob.poll(max_items=64)
        return (len(bob.updates), len(bob.chat_log), len(bob.whiteboard))

    updates, chats, drawings = run(collab, scenario())
    assert updates >= 1
    assert chats == 1
    assert drawings == 1


def test_share_view_reaches_group_even_with_collab_off(site):
    collab, app = site
    alice = collab.add_portal(0)
    bob = collab.add_portal(0)

    def scenario():
        yield from alice.login("alice")
        yield from bob.login("bob")
        a_sess = yield from alice.open(app.app_id)
        yield from bob.open(app.app_id)
        yield from alice.set_collaboration(False)
        delivered = yield from a_sess.share_view({"roi": [0, 10]})
        yield collab.sim.timeout(0.5)
        yield from bob.poll(max_items=64)
        shared = [u for u in bob.updates
                  if u.payload == {"roi": [0, 10]}]
        return (delivered, len(shared))

    delivered, shared = run(collab, scenario())
    assert delivered == 1
    assert shared == 1


def test_subgroup_chat_is_scoped(site):
    collab, app = site
    alice = collab.add_portal(0)
    bob = collab.add_portal(0)

    def scenario():
        yield from alice.login("alice")
        yield from bob.login("bob")
        a_sess = yield from alice.open(app.app_id)
        yield from bob.open(app.app_id)
        members = yield from a_sess.join_group("numerics")
        assert alice.client_id in members
        # bob is not in the subgroup: chat there must not reach him
        yield from a_sess.chat("secret", group="numerics")
        yield collab.sim.timeout(0.5)
        yield from bob.poll(max_items=64)
        return [m.text for m in bob.chat_log]

    assert run(collab, scenario()) == []


def test_logout_drops_lock_and_session(site):
    collab, app = site
    alice = collab.add_portal(0)
    bob = collab.add_portal(0)

    def scenario():
        yield from alice.login("alice")
        yield from bob.login("bob")
        a_sess = yield from alice.open(app.app_id)
        yield from a_sess.acquire_lock()
        server = collab.server_of(0)
        holder_before = server.locks.holder_of(app.app_id)
        yield from alice.logout()
        holder_after = server.locks.holder_of(app.app_id)
        sessions = server.collab.session_count()
        return (holder_before, holder_after, sessions)

    holder_before, holder_after, sessions = run(collab, scenario())
    assert holder_before is not None
    assert holder_after is None
    assert sessions == 1  # only bob remains


def test_wait_lock_granted_after_release(site):
    collab, app = site
    alice = collab.add_portal(0)
    bob_portal = collab.add_portal(0)
    # give bob write access for this test
    server = collab.server_of(0)
    server.security.register_app_acl(
        app.app_id, {"alice": "write", "bob": "write"})

    def alice_holds_then_releases():
        yield from alice.login("alice")
        sess = yield from alice.open(app.app_id)
        yield from sess.acquire_lock()
        yield collab.sim.timeout(3.0)
        yield from sess.release_lock()

    def bob_waits():
        yield from bob_portal.login("bob")
        sess = yield from bob_portal.open(app.app_id)
        yield collab.sim.timeout(0.5)  # after alice acquires
        outcome = yield from sess.wait_lock(timeout=20.0)
        return (outcome, collab.sim.now)

    collab.sim.spawn(alice_holds_then_releases())
    proc = collab.sim.spawn(bob_waits())
    outcome, when = collab.sim.run(until=proc)
    assert outcome == "granted"
    assert when >= 3.0  # only after alice released


def test_expired_session_hands_its_lock_to_the_waiter(site):
    """A holder whose browser went away: when her HTTP session times out
    she is logged out like ``/master/logout`` would, so the waiter drives."""
    collab, app = site
    server = collab.server_of(0)
    server.security.register_app_acl(
        app.app_id, {"alice": "write", "bob": "write"})
    alice, bob = collab.add_portal(0), collab.add_portal(0)
    # the sweep reads the timeout live: a minute covers the same hand-off
    # path as the default half hour in a fraction of the simulated time
    server.container.sessions.timeout = timeout = 60.0

    def scenario():
        yield from alice.login("alice")
        a_sess = yield from alice.open(app.app_id)
        assert (yield from a_sess.acquire_lock()) == "granted"
        yield from bob.login("bob")
        b_sess = yield from bob.open(app.app_id)
        assert (yield from b_sess.acquire_lock()) == "queued"
        # alice goes idle for good; bob keeps polling inside the timeout
        yield collab.sim.timeout(0.6 * timeout)
        yield from bob.poll()
        yield collab.sim.timeout(0.6 * timeout)
        return (yield from b_sess.lock_holder())  # first request after it

    assert run(collab, scenario()) == bob.client_id
    assert server.container.sessions_expired == 1
    assert server.locks.queue_length(app.app_id) == 0
    assert server.collab.session_count() == 1  # only bob remains


def test_logout_is_refused_to_a_session_that_did_not_log_the_client_in(site):
    """A client id is a sequential bearer token (``<server>:cN``): naming
    the holder's in ``/master/logout`` from another HTTP session must not
    free her lock — only her own logout hands it on."""
    collab, app = site
    server = collab.server_of(0)
    server.security.register_app_acl(
        app.app_id, {"alice": "write", "bob": "read", "carol": "write"})
    alice, carol, mallory = (collab.add_portal(0) for _ in range(3))

    def foreign_logout():
        yield from alice.login("alice")
        a_sess = yield from alice.open(app.app_id)
        assert (yield from a_sess.acquire_lock()) == "granted"
        yield from carol.login("carol")
        c_sess = yield from carol.open(app.app_id)
        assert (yield from c_sess.acquire_lock()) == "queued"
        yield from mallory.login("bob")  # read-only, with its own cookie
        try:
            yield from mallory.http.post(
                "/master/logout", params={"client_id": alice.client_id})
        except HttpError as exc:
            return exc.status

    status = run(collab, foreign_logout())
    alice_id = alice.client_id
    assert server.locks.holder_of(app.app_id) == alice_id
    assert server.locks.queue_length(app.app_id) == 1
    assert status == 403
    assert server.collab.session(alice_id).user == "alice"
    assert server.collab.session_count() == 3

    run(collab, alice.logout())
    assert server.locks.holder_of(app.app_id) == carol.client_id
    assert server.collab.session_count() == 2
    # a second logout of a client that no longer exists stays a no-op,
    # whoever sends it
    run(collab, mallory.http.post("/master/logout",
                                  params={"client_id": alice_id}))
    assert server.collab.session_count() == 2


FOREIGN_REQUESTS = {
    "/command/submit": ("post", {"command": "set_param",
                                 "args": {"name": "gain", "value": 2.0}}),
    "/command/lock": ("post", {"action": "release"}),
    "/collab/poll": ("get", {}),
    "/collab/chat": ("post", {"text": "it was alice"}),
    "/archive/interactions": ("get", {}),
    "/archive/applog": ("get", {}),
    "/archive/catchup": ("get", {}),
}


@pytest.mark.parametrize("path", sorted(FOREIGN_REQUESTS))
def test_a_request_names_only_its_own_client(site, path):
    """Every servlet trusted ``client_id`` the way ``/master/logout`` did:
    mallory's read-only session naming alice's ``d0-server:c1`` steered,
    took or gave up her lock, drained her buffer, spoke and read the
    archive as her.  It is 403 on each, and nothing of alice's moves."""
    collab, app = site
    server = collab.server_of(0)
    alice, mallory = collab.add_portal(0), collab.add_portal(0)
    method, params = FOREIGN_REQUESTS[path]

    def as_alice():
        yield from alice.login("alice")
        a_sess = yield from alice.open(app.app_id)
        assert (yield from a_sess.acquire_lock()) == "granted"
        yield from mallory.login("bob")  # read-only, with its own cookie
        yield from mallory.open(app.app_id)
        buffered = len(server.collab.session(alice.client_id).buffer)
        try:
            yield from getattr(mallory.http, method)(path, params=dict(
                params, client_id=alice.client_id, app_id=app.app_id))
        except HttpError as exc:
            assert len(server.collab.session(
                alice.client_id).buffer) >= buffered
            return exc.status

    assert run(collab, as_alice()) == 403
    assert alice.client_id != mallory.client_id
    assert server.locks.holder_of(app.app_id) == alice.client_id
    assert server.pipeline_metrics.error_types("http") == {
        "SecurityError": 1}
    # her own session still may
    run(collab, getattr(alice.http, method)(path, params=dict(
        params, client_id=alice.client_id, app_id=app.app_id)))


def test_a_recovered_client_can_log_out(site):
    """Cookies are not journalled: after ``restart_server`` no HTTP session
    is bound to the recovered holder, and she must still be able to leave."""
    collab, app = site
    alice = collab.add_portal(0)

    def hold():
        yield from alice.login("alice")
        a_sess = yield from alice.open(app.app_id)
        assert (yield from a_sess.acquire_lock()) == "granted"

    run(collab, hold())
    collab.server_of(0).stop()
    server, _report = collab.restart_server("d0-server")
    assert server.locks.holder_of(app.app_id) == alice.client_id
    # her old cookie: a new HTTP session, bound to nobody — she keeps
    # working (403 if the check took "unbound" for "not hers") and leaves
    run(collab, alice.http.get("/collab/poll",
                               params={"client_id": alice.client_id}))
    run(collab, alice.logout())
    assert server.locks.holder_of(app.app_id) is None
    assert server.collab.session_count() == 0


def test_error_message_from_bad_parameter(site):
    collab, app = site
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        yield from session.acquire_lock()
        try:
            # gain max is 100 — the app-side agent rejects this
            yield from session.set_param("gain", 1e9)
        except PortalError as exc:
            return str(exc)

    err = run(collab, scenario())
    assert "steering error" in err
    assert "above maximum" in err


def test_take_response_pops_once(site):
    collab, app = site
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        rid = yield from session.command("get_param", {"name": "gain"})
        msg = yield from portal.wait_response(rid)
        again = portal.take_response(rid)
        return (msg.result, again)

    result, again = run(collab, scenario())
    assert result == 1.0
    assert again is None
