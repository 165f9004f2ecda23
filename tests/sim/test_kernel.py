"""Tests for the discrete-event kernel: clock, ordering, run() modes."""

import pytest

from repro.sim import AnyOf, SimEvent, SimulationError, Simulator


def started_at(when):
    """A simulator whose clock reads ``when``: run an empty schedule there."""
    sim = Simulator()
    sim.run(until=when)
    return sim


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_custom_start():
    sim = started_at(100.0)
    assert sim.now == 100.0


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc(sim):
        yield sim.timeout(5.0)
        seen.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [5.0]


def test_timeout_value_passthrough():
    sim = Simulator()
    got = []

    def proc(sim):
        v = yield sim.timeout(1.0, value="hello")
        got.append(v)

    sim.spawn(proc(sim))
    sim.run()
    assert got == ["hello"]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_simultaneous_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in ("a", "b", "c"):
        sim.spawn(proc(sim, tag))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_mid_schedule():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(10.0)
        fired.append("late")

    sim.spawn(proc(sim))
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    # Continuing finishes the process.
    sim.run()
    assert fired == ["late"]


def test_run_until_event_returns_value():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(3.0)
        return 42

    p = sim.spawn(proc(sim))
    assert sim.run(until=p) == 42
    assert sim.now == 3.0


def test_run_until_past_time_rejected():
    sim = started_at(10.0)
    with pytest.raises(SimulationError):
        sim.run(until=5.0)


def test_run_until_event_that_never_fires_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        sim.run(until=ev)


def test_call_later_and_schedule_at():
    sim = Simulator()
    hits = []
    sim.call_later(2.0, lambda: hits.append(("later", sim.now)))
    sim.schedule_at(1.0, lambda _arg: hits.append(("at", sim.now)))
    sim.run()
    assert hits == [("at", 1.0), ("later", 2.0)]


def test_schedule_at_in_past_rejected():
    sim = started_at(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda _arg: None)


def test_timeout_at_fires_at_the_accumulated_instant():
    """Three steps of 0.1 from 0.03 sum to 0.33, but the delay round trip
    ``now + (when - now)`` lands one ulp later: only the absolute instant
    keeps the sum."""
    sim = started_at(0.03)
    when = sim.now
    for _ in range(3):
        when += 0.1
    assert sim.now + (when - sim.now) != when  # the two-addition rule
    fired = []

    def waiter():
        value = yield sim.timeout_at(when, "done")
        fired.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert fired == [(when, "done")]


def test_timeout_at_in_past_rejected():
    sim = started_at(5.0)
    with pytest.raises(SimulationError, match="in the past"):
        sim.timeout_at(4.9)


def test_timeout_at_now_dispatches_in_the_current_instant():
    sim = started_at(2.0)
    before = sim.events_dispatched
    order = []
    for label, ev in (("a", sim.timeout(0.0)), ("b", sim.timeout_at(2.0)),
                      ("c", sim.timeout(0.0))):
        ev.callbacks.append(lambda _ev, label=label: order.append(label))
    assert sim.peek() == 2.0
    sim.run()
    assert order == ["a", "b", "c"] and sim.now == 2.0
    assert sim.events_dispatched - before == 3


def test_abandoned_timeout_at_is_dropped():
    """The loser of an ``AnyOf`` race is an entry nobody listens to, as
    it is for a relative timeout: the clock visits it, nothing runs."""
    sim = Simulator()
    answer, expiry = sim.event(), sim.timeout_at(30.0)
    outcome = []

    def caller():
        fired = yield AnyOf(sim, [answer, expiry])
        outcome.append((answer in fired, sim.now))

    sim.spawn(caller())
    sim.call_later(1.0, lambda: answer.succeed("reply"))
    sim.run(until=2.0)
    assert outcome == [(True, 1.0)] and expiry.callbacks == []
    before = sim.events_dispatched
    sim.run()
    assert sim.events_dispatched == before and sim.now == 30.0
    assert expiry.processed


def test_manual_event_succeed():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim, ev):
        got.append((yield ev))

    sim.spawn(waiter(sim, ev))
    sim.call_later(4.0, lambda: ev.succeed("payload"))
    sim.run()
    assert got == ["payload"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter(sim, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.spawn(waiter(sim, ev))
    sim.call_later(1.0, lambda: ev.fail(RuntimeError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_failed_event_surfaces():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody home"))
    with pytest.raises(RuntimeError, match="nobody home"):
        sim.run()


def test_defused_failed_event_is_silent():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("quiet"))
    ev.defuse()
    sim.run()  # does not raise


def test_failed_defused_event_identical_under_step_and_run():
    """step() and run() share one dispatch path: a failed event that was
    defused is silent under both, and an un-defused one raises under both
    (regression test — step() used to read the public ok/defused properties
    while run() read the private attributes)."""
    def schedule_pair(sim):
        bad = sim.event()
        bad.fail(RuntimeError("quiet"))
        bad.defuse()
        after = sim.event()
        after.succeed("fine")
        return after

    # run(): drains both events without raising.
    sim = Simulator()
    after = schedule_pair(sim)
    sim.run()
    assert after.processed

    # step(): the same two events, one at a time, equally silent.
    sim = Simulator()
    after = schedule_pair(sim)
    sim.step()
    sim.step()
    assert after.processed
    with pytest.raises(SimulationError):
        sim.step()  # schedule drained, like run() returning

    # And a failed event *not* defused surfaces identically under both.
    sim = Simulator()
    sim.event().fail(RuntimeError("loud"))
    with pytest.raises(RuntimeError, match="loud"):
        sim.run()
    sim = Simulator()
    sim.event().fail(RuntimeError("loud"))
    with pytest.raises(RuntimeError, match="loud"):
        sim.step()


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_step_on_empty_schedule_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(2.5)  # nobody listens: it will be dropped, not run
    assert sim.peek() == float("inf")
    sim.call_later(7.5, lambda: None)
    assert sim.peek() == 7.5
