"""Tests for process semantics: join, return values, interrupts, errors."""

import pytest

from repro.sim import AnyOf, Interrupt, SimulationError, Simulator


def test_process_return_value_via_join():
    sim = Simulator()
    results = []

    def worker(sim):
        yield sim.timeout(2.0)
        return "done"

    def parent(sim):
        child = sim.spawn(worker(sim))
        results.append((yield child))

    sim.spawn(parent(sim))
    sim.run()
    assert results == ["done"]


def test_joining_dead_process_resumes_immediately():
    sim = Simulator()
    results = []

    def worker(sim):
        yield sim.timeout(1.0)
        return 7

    def parent(sim, child):
        yield sim.timeout(5.0)  # child is long dead by now
        results.append((yield child))
        results.append(sim.now)

    child = sim.spawn(worker(sim))
    sim.spawn(parent(sim, child))
    sim.run()
    assert results == [7, 5.0]


def test_process_is_alive_lifecycle():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(3.0)

    p = sim.spawn(worker(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_process_exception_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("exploded")

    def parent(sim):
        child = sim.spawn(bad(sim))
        try:
            yield child
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(parent(sim))
    sim.run()
    assert caught == ["exploded"]


def test_unjoined_process_exception_surfaces_from_run():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("unhandled")

    sim.spawn(bad(sim))
    with pytest.raises(ValueError, match="unhandled"):
        sim.run()


def test_yielding_non_event_is_an_error():
    sim = Simulator()
    caught = []

    def confused(sim):
        try:
            yield 42
        except SimulationError as exc:
            caught.append("caught")

    sim.spawn(confused(sim))
    sim.run()
    assert caught == ["caught"]


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
            log.append("overslept")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.args[0]))

    def interrupter(sim, victim):
        yield sim.timeout(5.0)
        victim.interrupt("wake up")

    victim = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, victim))
    sim.run()
    assert log == [("interrupted", 5.0, "wake up")]


def test_interrupted_process_can_keep_running():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(1.0)
        log.append(sim.now)

    def interrupter(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt("stop")

    victim = sim.spawn(sleeper(sim))
    sim.spawn(interrupter(sim, victim))
    sim.run()
    assert log == [3.0]


def test_interrupt_dead_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1.0)

    p = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        p.interrupt("stop")


def test_self_interrupt_rejected():
    sim = Simulator()
    errors = []

    def narcissist(sim):
        try:
            me = sim.active_process
            me.interrupt("stop")
        except SimulationError:
            errors.append("rejected")
        yield sim.timeout(0)

    sim.spawn(narcissist(sim))
    sim.run()
    assert errors == ["rejected"]


def test_anyof_fires_on_first():
    sim = Simulator()
    results = []

    def waiter(sim):
        t_fast = sim.timeout(1.0, value="fast")
        t_slow = sim.timeout(10.0, value="slow")
        fired = yield AnyOf(sim, [t_fast, t_slow])
        results.append((sim.now, list(fired.values())))

    sim.spawn(waiter(sim))
    sim.run()
    assert results == [(1.0, ["fast"])]


def test_anyof_empty_fires_immediately():
    sim = Simulator()
    results = []

    def waiter(sim):
        fired = yield AnyOf(sim, [])
        results.append((sim.now, fired))

    sim.spawn(waiter(sim))
    sim.run()
    assert results == [(0.0, {})]


def test_anyof_value_is_the_first_member_only():
    """Members firing at one instant, or already processed, still give a
    one-entry value: the first member the condition saw fire."""
    sim = Simulator()
    results = []

    def waiter(sim, events):
        fired = yield AnyOf(sim, events)
        results.append(list(fired.items()))

    a, b = sim.timeout(1.0, value="a"), sim.timeout(1.0, value="b")
    sim.spawn(waiter(sim, [b, a]))  # same instant: a's callbacks run first
    sim.run()
    assert results == [[(a, "a")]]
    assert a.processed and b.processed
    sim.spawn(waiter(sim, [b, a]))  # both processed: the first listed
    sim.run()
    assert results[1] == [(b, "b")]


def test_condition_propagates_failure():
    sim = Simulator()
    caught = []

    def waiter(sim, ev):
        try:
            yield AnyOf(sim, [sim.timeout(10.0), ev])
        except RuntimeError as exc:
            caught.append(str(exc))

    ev = sim.event()
    sim.spawn(waiter(sim, ev))
    sim.call_later(1.0, lambda: ev.fail(RuntimeError("bad member")))
    sim.run()
    assert caught == ["bad member"]


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_process_names():
    sim = Simulator()

    def mytask(sim):
        yield sim.timeout(1)

    p1 = sim.spawn(mytask(sim))
    p2 = sim.spawn(mytask(sim), name="custom")
    assert p1.name == "mytask"
    assert p2.name == "custom"
    sim.run()


def test_nested_spawning():
    sim = Simulator()
    order = []

    def grandchild(sim):
        yield sim.timeout(1.0)
        order.append("grandchild")

    def child(sim):
        gc = sim.spawn(grandchild(sim))
        yield gc
        order.append("child")

    def root(sim):
        c = sim.spawn(child(sim))
        yield c
        order.append("root")

    sim.spawn(root(sim))
    sim.run()
    assert order == ["grandchild", "child", "root"]
