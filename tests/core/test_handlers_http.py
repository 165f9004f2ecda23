"""HTTP-surface edge cases for the DISCOVER servlets."""

import pytest

from repro import AppConfig, build_single_server
from repro.apps import SyntheticApp
from repro.web import HttpClient, HttpError


def cfg():
    return AppConfig(steps_per_phase=2, step_time=0.01,
                     interaction_window=0.05, command_service_time=0.001)


@pytest.fixture
def site():
    collab = build_single_server()
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "wave", acl={"alice": "write"},
                         config=cfg())
    collab.sim.run(until=2.0)
    client = HttpClient(collab.domains[0].client_hosts[0],
                        collab.domains[0].server.name)
    return collab, app, client


def run(collab, gen):
    return collab.sim.run(until=collab.sim.spawn(gen))


def status_of(collab, gen):
    def wrapper():
        try:
            yield from gen
        except HttpError as exc:
            return exc.status
        return 200

    return run(collab, wrapper())


def login(client, user="alice"):
    body = yield from client.post("/master/login", params={"user": user})
    return body["client_id"]


def test_unknown_master_action_is_400(site):
    collab, app, client = site
    assert status_of(collab, client.post("/master/frobnicate",
                                         params={})) == 400


def test_missing_parameter_is_400(site):
    collab, app, client = site
    # login without user
    assert status_of(collab, client.post("/master/login", params={})) == 400


def test_select_without_valid_client_is_404(site):
    collab, app, client = site
    assert status_of(collab, client.post(
        "/master/select",
        params={"client_id": "d0-server:c99", "app_id": app.app_id})) == 404


def test_command_unknown_lock_action_is_400(site):
    collab, app, client = site

    def scenario():
        cid = yield from login(client)
        yield from client.post("/command/lock",
                               params={"client_id": cid,
                                       "app_id": app.app_id,
                                       "action": "steal"})

    assert status_of(collab, scenario()) == 400


def test_unknown_command_becomes_error_response(site):
    """An undefined steering command is accepted by the server (READ level)
    and rejected by the application agent via an ErrorMessage."""
    collab, app, client = site

    def scenario():
        cid = yield from login(client)
        yield from client.post("/master/select",
                               params={"client_id": cid,
                                       "app_id": app.app_id})
        body = yield from client.post(
            "/command/submit",
            params={"client_id": cid, "app_id": app.app_id,
                    "command": "frobnicate", "args": {}})
        request_id = body["request_id"]
        # poll until the error response lands
        for _ in range(50):
            yield collab.sim.timeout(0.2)
            got = yield from client.get("/collab/poll",
                                        {"client_id": cid, "max": 32})
            for msg in got["messages"]:
                if getattr(msg, "request_id", None) == request_id:
                    return msg.type_name()

    assert run(collab, scenario()) == "ErrorMessage"


def test_collab_members_endpoint(site):
    collab, app, client = site

    def scenario():
        cid = yield from login(client)
        yield from client.post("/master/select",
                               params={"client_id": cid,
                                       "app_id": app.app_id})
        body = yield from client.get("/collab/members",
                                     {"app_id": app.app_id})
        return (cid, body["members"])

    cid, members = run(collab, scenario())
    assert members == [cid]


def test_master_users_endpoint(site):
    collab, app, client = site

    def scenario():
        cid = yield from login(client)
        body = yield from client.get("/master/users",
                                     {"client_id": cid})
        return body["users"]

    assert run(collab, scenario()) == ["alice"]


def test_group_join_unknown_client_is_404(site):
    collab, app, client = site
    assert status_of(collab, client.post(
        "/collab/group",
        params={"client_id": "d0-server:c77", "app_id": app.app_id,
                "group": "g", "action": "join"})) == 404


def test_archive_requires_client_id(site):
    collab, app, client = site
    assert status_of(collab, client.get(
        "/archive/interactions", {"app_id": app.app_id})) == 400


def test_poll_empty_buffer_returns_empty_list(site):
    collab, app, client = site

    def scenario():
        cid = yield from login(client)
        body = yield from client.get("/collab/poll",
                                     {"client_id": cid, "max": 10})
        return body["messages"]

    assert run(collab, scenario()) == []


def test_poll_respects_max(site):
    collab, app, client = site

    def scenario():
        cid = yield from login(client)
        yield from client.post("/master/select",
                               params={"client_id": cid,
                                       "app_id": app.app_id})
        yield collab.sim.timeout(3.0)  # accumulate several updates
        body = yield from client.get("/collab/poll",
                                     {"client_id": cid, "max": 2})
        return len(body["messages"])

    assert run(collab, scenario()) == 2


def test_http_session_cookie_issued_once(site):
    collab, app, client = site

    def scenario():
        cid = yield from login(client)
        first_cookie = client.cookie
        yield from client.get("/master/apps", {"client_id": cid})
        return (first_cookie, client.cookie)

    first, later = run(collab, scenario())
    assert first.startswith("JSESSIONID-")
    assert later == first  # the same session is reused, not re-issued


@pytest.mark.usefixtures("session_ids_kept")
@pytest.mark.parametrize("path", ["/status", "/archive/interactions"])
def test_post_to_a_get_only_servlet_is_400_naming_its_mount(site, path):
    collab, app, client = site

    def go():
        try:
            yield from client.post(path, params={})
        except HttpError as exc:
            return exc.status, exc.body

    status, body = run(collab, go())
    mount = "/" + path.split("/")[1]
    assert (status, body) == (400, {"error": f"POST not supported on {mount}"})
