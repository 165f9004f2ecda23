"""Tests for the HTTP tier: requests, sessions, servlets, container, client."""

import pytest

from repro.metrics import PipelineMetrics
from repro.net import Network
from repro.pipeline import PLANE_HTTP
from repro.pipeline.interceptors import default_pipeline
from repro.sim import Simulator
from repro.web import (
    HttpClient,
    HttpError,
    HttpRequest,
    HttpResponse,
    Servlet,
    ServletContainer,
    SessionManager,
)
from repro.web.http import NOT_FOUND, OK
from tests.conftest import drive


class EchoServlet(Servlet):
    def do_get(self, request, session):
        return {"echo": request.params}

    def do_post(self, request, session):
        return {"got": request.body}


class CounterServlet(Servlet):
    """Session-stateful servlet."""

    def do_get(self, request, session):
        n = session.get("count", 0) + 1
        session.set("count", n)
        return {"count": n}


class SlowServlet(Servlet):
    """Generator handler taking virtual time."""

    def do_get(self, request, session):
        yield self.container.sim.timeout(0.25)
        return {"slow": True}


class SubmitServlet(Servlet):
    """POST-only: GET falls through to the base servlet's answer."""

    def do_post(self, request, session):
        return {"accepted": True}


class RequestIdServlet(Servlet):
    def do_get(self, request, session):
        return {"request_id": request.request_id}


class CrashServlet(Servlet):
    def do_get(self, request, session):
        raise RuntimeError("servlet exploded")


def make_site(latency=0.001, cpus=1):
    sim = Simulator()
    net = Network(sim)
    net.add_host("www", cpu_capacity=cpus)
    net.add_host("browser")
    net.add_link("www", "browser", latency)
    container = ServletContainer(net.hosts["www"])
    client = HttpClient(net.hosts["browser"], "www")
    return sim, net, container, client


# ------------------------------- model -----------------------------------

def test_http_request_validation():
    with pytest.raises(ValueError):
        HttpRequest(1, "DELETE", "/x")


def test_http_response_ok_and_reason():
    assert HttpResponse(1, OK).ok
    assert not HttpResponse(1, NOT_FOUND).ok
    assert HttpResponse(1, NOT_FOUND).reason == "Not Found"
    assert HttpResponse(1, 599).reason == "599"


def test_request_ids_increase():
    sim, net, container, client = make_site()
    container.mount("/id", RequestIdServlet())

    def go():
        a = yield from client.get("/id")
        b = yield from client.get("/id")
        return a["request_id"], b["request_id"]

    a, b = drive(sim, go())
    assert b > a


# ------------------------------ sessions ----------------------------------

def test_session_create_resolve():
    mgr = SessionManager()
    s = mgr.create(0.0, "JSESSIONID-1")
    assert mgr.resolve(s.session_id, now=10.0) is s
    assert s.last_access == 10.0


def test_session_unknown_cookie():
    mgr = SessionManager()
    assert mgr.resolve("nope", now=0.0) is None


def test_session_timeout():
    mgr = SessionManager(timeout=100.0)
    s = mgr.create(0.0, "JSESSIONID-1")
    assert mgr.resolve(s.session_id, now=101.0) is None
    assert len(mgr) == 0


def test_session_invalidate():
    mgr = SessionManager()
    s = mgr.create(0.0, "JSESSIONID-1")
    mgr.invalidate(s.session_id)
    assert mgr.resolve(s.session_id, now=1.0) is None


def test_expire_stale_bulk():
    mgr = SessionManager(timeout=10.0)
    s1 = mgr.create(0.0, "JSESSIONID-1")
    mgr.create(5.0, "JSESSIONID-2")
    assert mgr.expire_stale(now=12.0) == 1
    assert len(mgr) == 1


def test_session_attributes():
    mgr = SessionManager()
    s = mgr.create(0.0, "JSESSIONID-1")
    s.set("user", "alice")
    assert s.get("user") == "alice"
    assert "user" in s
    assert s.get("missing", "dflt") == "dflt"


# ------------------------------ container ---------------------------------

def test_get_roundtrip():
    sim, net, container, client = make_site()
    container.mount("/echo", EchoServlet())

    def go():
        return (yield from client.get("/echo", {"q": "hello"}))

    assert drive(sim, go()) == {"echo": {"q": "hello"}}


def test_post_roundtrip():
    sim, net, container, client = make_site()
    container.mount("/echo", EchoServlet())

    def go():
        return (yield from client.post("/echo", body=[1, 2, 3]))

    assert drive(sim, go()) == {"got": [1, 2, 3]}


def test_unknown_path_is_404():
    sim, net, container, client = make_site()

    def go():
        try:
            yield from client.get("/nowhere")
        except HttpError as exc:
            return exc.status

    assert drive(sim, go()) == 404


def test_get_on_a_post_only_servlet_is_400_naming_its_mount():
    sim, net, container, client = make_site()
    container.mount("/submit", SubmitServlet())

    def go():
        try:
            yield from client.get("/submit")
        except HttpError as exc:
            return (exc.status, exc.body)

    assert drive(sim, go()) == (400, {"error": "GET not supported on /submit"})


def test_servlet_exception_is_500():
    sim, net, container, client = make_site()
    container.mount("/crash", CrashServlet())

    def go():
        try:
            yield from client.get("/crash")
        except HttpError as exc:
            return (exc.status, exc.body["error"])

    status, error = drive(sim, go())
    assert status == 500
    assert "servlet exploded" in error


def test_session_cookie_persists_across_requests():
    sim, net, container, client = make_site()
    container.mount("/count", CounterServlet())

    def go():
        first = yield from client.get("/count")
        second = yield from client.get("/count")
        third = yield from client.get("/count")
        return (first, second, third, len(container.sessions))

    f, s, t, n_sessions = drive(sim, go())
    assert (f, s, t) == ({"count": 1}, {"count": 2}, {"count": 3})
    assert n_sessions == 1  # one session, reused


def test_distinct_clients_get_distinct_sessions():
    sim, net, container, client = make_site()
    client2 = HttpClient(net.hosts["browser"], "www")
    container.mount("/count", CounterServlet())

    def go(c):
        return (yield from c.get("/count"))

    r1 = drive(sim, go(client))
    r2 = drive(sim, go(client2))
    assert r1 == {"count": 1}
    assert r2 == {"count": 1}
    assert len(container.sessions) == 2


def test_generator_servlet_takes_time():
    sim, net, container, client = make_site()
    container.mount("/slow", SlowServlet())

    def go():
        body = yield from client.get("/slow")
        return (body, sim.now)

    body, t = drive(sim, go())
    assert body == {"slow": True}
    assert t > 0.25


def test_longest_prefix_routing():
    sim, net, container, client = make_site()

    class A(Servlet):
        def do_get(self, request, session):
            return "A"

    class AB(Servlet):
        def do_get(self, request, session):
            return "AB"

    container.mount("/a", A())
    container.mount("/a/b", AB())

    def go():
        r1 = yield from client.get("/a/x")
        r2 = yield from client.get("/a/b/x")
        r3 = yield from client.get("/a/b")
        return (r1, r2, r3)

    assert drive(sim, go()) == ("A", "AB", "AB")


def test_servlet_for_resolves_each_path_once_until_a_mount():
    sim, net, container, client = make_site()
    a, ab = container.mount("/a", EchoServlet()), EchoServlet()
    for _ in range(2):  # the second round is answered from the route memo
        assert container.servlet_for("/a") is a       # exact
        assert container.servlet_for("/a/b/x") is a   # sub-path
        assert container.servlet_for("/ab") is None   # a prefix, no segment
        assert container.servlet_for("/zzz") is None  # unmatched
    # a mount after the first requests re-resolves what it now covers
    container.mount("/a/b", ab)
    assert container.servlet_for("/a/b/x") is ab
    assert container.servlet_for("/a") is a
    assert container.servlet_for("/zzz") is None
    container.mount("/zzz", EchoServlet())
    assert container.servlet_for("/zzz") is container._servlets["/zzz"]


def test_route_memo_is_bounded():
    from repro.web.container import ROUTE_CACHE_SIZE

    sim, net, container, client = make_site()
    a = container.mount("/a", EchoServlet())
    for i in range(ROUTE_CACHE_SIZE + 5):
        assert container.servlet_for(f"/a/{i}") is a
    assert len(container._routes) <= ROUTE_CACHE_SIZE


def test_mount_validation():
    sim, net, container, client = make_site()
    with pytest.raises(ValueError):
        container.mount("noslash", EchoServlet())
    container.mount("/x", EchoServlet())
    with pytest.raises(ValueError):
        container.mount("/x", EchoServlet())


def test_client_timeout_after_container_stop():
    sim, net, container, client = make_site()
    container.stop()

    def go():
        try:
            yield from client.get("/echo", timeout=2.0)
        except HttpError as exc:
            return (exc.status, sim.now)

    status, t = drive(sim, go())
    assert status == 0
    assert t >= 2.0


def test_requests_queue_on_single_cpu():
    """Concurrent requests serialize on the host CPU — the saturation
    mechanism behind the paper's ~20-client limit."""
    sim, net, container, client = make_site(latency=0.0)
    container.mount("/echo", EchoServlet())
    clients = [HttpClient(net.hosts["browser"], "www") for _ in range(4)]
    finish = []

    def go(c):
        yield from c.get("/echo")
        finish.append(sim.now)

    for c in clients:
        sim.spawn(go(c))
    sim.run()
    # Completions should be spread out, roughly one service time apart.
    gaps = [b - a for a, b in zip(finish, finish[1:])]
    assert all(g > 0 for g in gaps)
    assert finish[-1] >= 4 * container.costs.http_request_cost


def test_requests_served_counter():
    # The container keeps no count of its own: the metrics sink of the
    # pipeline it dispatches through counts every request it serves.
    sim, net, container, client = make_site()
    metrics = PipelineMetrics()
    container.pipeline = default_pipeline(clock=lambda: sim.now,
                                          metrics=metrics)
    container.mount("/echo", EchoServlet())

    def go():
        yield from client.get("/echo")
        yield from client.get("/echo")

    drive(sim, go())
    assert metrics.requests(PLANE_HTTP) == 2
    assert metrics.requests() == 2


def test_amortized_sweep_expires_idle_sessions():
    sim, net, container, client = make_site()
    container.sessions.timeout = 10.0
    container.mount("/echo", EchoServlet())
    fresh = HttpClient(net.hosts["browser"], "www")

    def first_visit():
        yield from client.get("/echo")

    drive(sim, first_visit())
    assert len(container.sessions) == 1

    def later_visit():
        # idle far beyond the timeout; a new client's request triggers
        # the amortized sweep, reaping the stale session
        yield sim.timeout(30.0)
        yield from fresh.get("/echo")

    drive(sim, later_visit())
    assert container.sessions_expired == 1
    assert len(container.sessions) == 1  # only the fresh client remains


def test_both_expiry_paths_tell_the_owner_once_and_count():
    expired = []
    sim, net, container, early = make_site()
    container.sessions.timeout = 100.0
    container.sessions.on_expire = expired.append
    container.mount("/echo", EchoServlet())
    late, fresh = (HttpClient(net.hosts["browser"], "www") for _ in range(2))

    def go():
        yield from early.get("/echo")
        yield sim.timeout(15.0)
        yield from late.get("/echo")
        yield sim.timeout(90.0)          # early idle 105 s, late 90 s
        yield from fresh.get("/echo")    # the sweep reaps early only
        assert len(expired) == 1
        yield sim.timeout(15.0)          # no sweep is due: late is found
        yield from late.get("/echo")     # stale when its own cookie returns

    drive(sim, go())
    assert len({s.session_id for s in expired}) == len(expired) == 2
    assert container.sessions_expired == 2
    assert len(container.sessions) == 2  # fresh, and late's new session


def test_stale_cookie_gets_new_session():
    sim, net, container, client = make_site()
    container.sessions.timeout = 5.0
    container.mount("/count", CounterServlet())

    def go():
        first = yield from client.get("/count")
        yield sim.timeout(20.0)  # session expires server-side
        second = yield from client.get("/count")
        return (first, second)

    first, second = drive(sim, go())
    assert first == {"count": 1}
    assert second == {"count": 1}  # state was lost with the session
