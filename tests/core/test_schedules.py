"""Tests for scheduled automated periodic interactions (§2.1)."""

import pytest

from repro import AppConfig, build_collaboratory, build_single_server
from repro.apps import SyntheticApp


def cfg():
    return AppConfig(steps_per_phase=2, step_time=0.01,
                     interaction_window=0.05, command_service_time=0.001)


@pytest.fixture
def site():
    collab = build_single_server()
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "wave",
                         acl={"alice": "write", "bob": "read"},
                         config=cfg())
    collab.sim.run(until=2.0)
    return collab, app


def run(collab, gen):
    return collab.sim.run(until=collab.sim.spawn(gen))


def test_schedule_delivers_periodic_responses(site):
    collab, app = site
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        sid = yield from session.schedule("read_sensor",
                                          {"name": "counter"},
                                          period=0.5, count=5)
        yield collab.sim.timeout(5.0)
        while (yield from portal.poll(max_items=64)):
            pass
        return (sid, len(portal._responses))

    sid, n_responses = run(collab, scenario())
    assert sid.startswith("sched-")
    assert n_responses == 5  # exactly `count` firings


def test_schedule_runs_until_cancelled(site):
    collab, app = site
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        sid = yield from session.schedule("status", {}, period=0.4)
        yield collab.sim.timeout(3.0)
        stopped = yield from session.unschedule(sid)
        while (yield from portal.poll(max_items=64)):
            pass
        n_before = len(portal._responses)
        yield collab.sim.timeout(3.0)
        while (yield from portal.poll(max_items=64)):
            pass
        return (stopped, n_before, len(portal._responses))

    stopped, before, after = run(collab, scenario())
    assert stopped is True
    assert before >= 5
    assert after == before  # nothing fired after cancellation


def test_cancel_twice_reports_already_stopped(site):
    collab, app = site
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        sid = yield from session.schedule("status", {}, period=0.5, count=2)
        yield collab.sim.timeout(3.0)  # schedule completes on its own
        return (yield from session.unschedule(sid))

    assert run(collab, scenario()) is False


def test_schedule_id_not_reused_after_an_earlier_schedule_ends(site):
    """Ids come from a monotonic counter: with ``len(_schedules) + 1`` the
    schedule created after A ended took live B's id, so B could never be
    cancelled and cancelling "B" stopped C instead."""
    collab, app = site
    portal = collab.add_portal(0)
    server = collab.server_of(0)

    def drain():
        while (yield from portal.poll(max_items=64)):
            pass
        return len(portal._responses)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        a = yield from session.schedule("status", {}, period=0.2, count=1)
        b = yield from session.schedule("status", {}, period=0.5)
        yield collab.sim.timeout(1.0)  # A fired once and ended; B is live
        b_proc = server._schedules[b]
        c = yield from session.schedule("status", {}, period=0.5)
        c_proc = server._schedules[c]
        stopped_b = yield from session.unschedule(b)
        liveness = (b_proc.is_alive, c_proc.is_alive)
        n1 = yield from drain()
        yield collab.sim.timeout(2.0)
        n2 = yield from drain()  # only C can have fired in between
        stopped_c = yield from session.unschedule(c)
        n3 = yield from drain()
        yield collab.sim.timeout(2.0)
        n4 = yield from drain()
        return (a, b, c), stopped_b, liveness, (n1, n2), stopped_c, (n3, n4)

    ids, stopped_b, liveness, (n1, n2), stopped_c, (n3, n4) = run(
        collab, scenario())
    assert len(set(ids)) == 3
    assert stopped_b is True
    assert liveness == (False, True)  # B is dead, C untouched
    assert n2 >= n1 + 3               # C kept firing after B's cancel
    assert stopped_c is True
    assert n4 == n3                   # neither B nor C fires any more
    assert not server._schedules


def test_cannot_cancel_someone_elses_schedule(site):
    collab, app = site
    alice = collab.add_portal(0)
    bob = collab.add_portal(0)
    from repro.web import HttpError

    def scenario():
        yield from alice.login("alice")
        yield from bob.login("bob")
        a_sess = yield from alice.open(app.app_id)
        b_sess = yield from bob.open(app.app_id)
        sid = yield from a_sess.schedule("status", {}, period=0.5)
        try:
            yield from bob.http.post(
                "/command/unschedule",
                params={"client_id": bob.client_id, "schedule_id": sid})
        except HttpError as exc:
            return exc.status

    assert run(collab, scenario()) == 403


def test_mutating_schedule_stops_on_lost_lock(site):
    """A scheduled set_param stops (with an error on the poll stream) when
    the client does not hold the lock."""
    collab, app = site
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        # no lock acquired: the first firing fails and kills the schedule
        yield from session.schedule("set_param",
                                    {"name": "gain", "value": 5.0},
                                    period=0.5)
        yield collab.sim.timeout(2.0)
        while (yield from portal.poll(max_items=64)):
            pass
        errors = [m for m in portal._responses.values()
                  if m.type_name() == "ErrorMessage"]
        sched_errors = [m for m in errors if m.code == "SCHEDULE"]
        return len(sched_errors)

    assert run(collab, scenario()) == 1
    assert app.gain.value == 1.0  # never actually steered


def test_logout_cancels_schedules(site):
    collab, app = site
    portal = collab.add_portal(0)
    server = collab.server_of(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        yield from session.schedule("status", {}, period=0.5)
        n_live = len(server._schedules)
        yield from portal.logout()
        yield collab.sim.timeout(1.0)
        return (n_live, len(server._schedules))

    n_before, n_after = run(collab, scenario())
    assert n_before == 1
    assert n_after == 0


def test_a_stopped_server_fires_no_schedule(site):
    """``stop()`` is every crash drill's "kill": a schedule left running
    would go on steering, archiving and journalling into the backend a
    replacement server recovers from."""
    collab, app = site
    portal = collab.add_portal(0)
    server = collab.server_of(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        yield from session.schedule("status", {}, period=0.5)
        yield collab.sim.timeout(1.6)  # three firings

    def reading():
        return (server.stats["commands_submitted"],
                server.archive.interaction_count(app.app_id),
                server.journal.wal.last_lsn)

    run(collab, scenario())
    procs = list(server._schedules.values())
    assert reading()[:2] == (3, 3)
    server.stop()
    stopped_at = reading()
    collab.sim.run(until=collab.sim.now + 1.5)  # three more periods
    assert reading() == stopped_at
    assert not any(proc.is_alive for proc in procs)
    assert server._schedules == {}


def test_schedule_works_for_remote_app():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    app = collab.add_app(1, SyntheticApp, "remote-sched",
                         acl={"alice": "write"}, config=cfg())
    collab.sim.run(until=3.0)
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        yield from session.schedule("read_sensor", {"name": "counter"},
                                    period=0.5, count=3)
        yield collab.sim.timeout(4.0)
        while (yield from portal.poll(max_items=64)):
            pass
        return len(portal._responses)

    assert run(collab, scenario()) == 3


def test_schedule_invalid_period(site):
    collab, app = site
    portal = collab.add_portal(0)
    from repro.web import HttpError

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        try:
            yield from session.schedule("status", {}, period=-1.0)
        except HttpError as exc:
            return exc.status

    assert run(collab, scenario()) == 400
