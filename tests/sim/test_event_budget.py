"""What the kernel dispatches for a frame hop, a put, a process exit and a
lost timer race — as exact deltas of ``Simulator.events_dispatched``, with
no timing (in the spirit of tests/obs/test_timeseries_cost.py).

An event the kernel dispatches costs a heap or bucket entry, a callback
list and a trip round the run loop whether or not anybody was waiting for
it.  Since PR 18 the ones nobody waits for are not made: the counts below
are the budget, the parent's are in the comments.
"""

import pytest

from repro.net import Network
from repro.sim import AnyOf, SimulationError, Simulator, Store
from tests.conftest import polling_miniature


def listening_line(*hosts, latency=0.001, bandwidth=1e6):
    """Hosts joined in a line; a receiver parked on the last one's port 1."""
    sim = Simulator()
    net = Network(sim)
    for name in hosts:
        net.add_host(name)
    for a, b in zip(hosts, hosts[1:]):
        net.add_link(a, b, latency=latency, bandwidth=bandwidth)
    sender = net.hosts[hosts[0]].bind(1)
    receiver = net.hosts[hosts[-1]].bind(1)
    got = []

    def drain():
        while True:
            frame = yield receiver.recv()
            got.append(frame.payload)

    sim.spawn(drain())
    sim.run()  # the receiver boots and parks on its first recv()
    return sim, sender, got


def spent(sim) -> int:
    """Events dispatched by draining the schedule."""
    before = sim.events_dispatched
    sim.run()
    return sim.events_dispatched - before


# -- frames ---------------------------------------------------------------------

def test_one_frame_one_hop_is_two_events():
    sim, sender, got = listening_line("a", "b")
    sender.send("b", 1, "hello")
    # the arrival callback and the receiver's get; the parent also paid for
    # transmission-complete and an inbox StorePut nobody waited on: 4
    assert spent(sim) == 2
    assert got == ["hello"]


def test_a_queued_burst_is_two_events_per_frame():
    sim, sender, got = listening_line("a", "b")
    for i in range(7):
        sender.send("b", 1, i)  # all behind the first on one transmitter
    assert spent(sim) == 2 * 7  # parent: 4 * 7
    assert got == list(range(7))


def test_two_hops_are_three_events():
    sim, sender, got = listening_line("a", "m", "b")
    sender.send("b", 1, "hello")
    assert spent(sim) == 3  # one arrival per hop and the get; parent: 6
    assert got == ["hello"]


# -- puts -------------------------------------------------------------------------

def test_try_put_costs_the_getters_event_or_nothing():
    sim = Simulator()
    store = Store(sim)
    assert store.try_put(3) is True
    assert spent(sim) == 0  # parent: 1, a StorePut with no callback
    assert len(store) == 1 and store.try_get() == 3

    got = []

    def getter():
        got.append((yield store.get()))

    sim.spawn(getter())
    sim.run()
    assert store.try_put(5) is True
    assert spent(sim) == 1  # the waiting get fires; parent: 2
    assert got == [5]


def test_try_put_still_refuses_a_full_store_and_keeps_put_order():
    sim = Simulator()
    store = Store(sim, capacity=2)
    assert store.try_put("a") is True and store.try_put("b") is True
    assert store.try_put("c") is False  # full: refused, not queued
    assert store.try_get() == "a"
    assert store.try_put("d") is True
    assert [store.try_get(), store.try_get(), store.try_get()] == ["b", "d", None]
    assert spent(sim) == 0  # nobody waited: no event either way


# -- process exits ------------------------------------------------------------------

def test_a_process_nobody_joins_ends_without_an_event():
    sim = Simulator()

    def worker():
        yield sim.timeout(1.0)
        return "done"

    proc = sim.spawn(worker())
    assert spent(sim) == 2  # boot and the timeout; parent: 3
    assert proc.processed and not proc.is_alive and proc.value == "done"
    assert sim.run(until=proc) == "done"

    def joiner():
        return (yield proc)

    late = sim.spawn(joiner())
    assert sim.run(until=late) == "done"


def test_a_failing_process_nobody_joins_still_surfaces():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("boom")

    sim.spawn(bad())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


# -- timers that lost their race --------------------------------------------------------

def race(sim, answered_at=None):
    """A caller racing an answer against a 30 s expiry, as every ORB call,
    HTTP request and steering get does."""
    waiter, expiry = sim.event(), sim.timeout(30.0)
    outcome = []

    def caller():
        fired = yield AnyOf(sim, [waiter, expiry])
        outcome.append(("answered" if waiter in fired else "expired",
                        sim.now))

    sim.spawn(caller())
    if answered_at is not None:
        sim.call_later(answered_at, lambda: waiter.succeed("reply"))
    return expiry, outcome


def test_a_timer_that_lost_its_race_is_not_dispatched():
    sim = Simulator()
    expiry, outcome = race(sim, answered_at=1.0)
    sim.run(until=2.0)
    assert outcome == [("answered", 1.0)]
    assert expiry.callbacks == []  # the AnyOf took its callback back
    assert spent(sim) == 0  # parent: 1, thirty seconds later, to do nothing
    assert sim.now == 30.0  # the clock still visits the instant
    assert expiry.processed


def test_a_timer_that_wins_its_race_is_delivered():
    sim = Simulator()
    _expiry, outcome = race(sim)
    sim.run()
    assert outcome == [("expired", 30.0)]


def test_step_walks_past_instants_of_abandoned_timers():
    sim = Simulator()
    race(sim, answered_at=1.0)
    sim.run(until=2.0)
    sim.timeout(5.0)  # one more that nobody listens to
    fired = []
    sim.schedule_at(40.0, lambda _arg: fired.append(sim.now))
    assert sim.peek() == 40.0
    before = sim.events_dispatched
    sim.step()
    assert fired == [40.0] and sim.events_dispatched == before + 1
    sim.timeout(1.0)
    assert sim.peek() == float("inf")
    with pytest.raises(SimulationError, match="empty schedule"):
        sim.step()
    assert sim.now == 41.0


# -- an E2-shaped miniature -------------------------------------------------------------

POLLS = 57
#: 1 460 before the kernel's event diet; 974 before a compute phase became
#: one timer — the 144 gone are exactly the non-final compute-step timers
#: the application's 16 phases of 10 steps dispatched (16 x 9).  830
#: before the HTTP container, the HTTP clients and the ORBs bound handler
#: ports: the 138 gone are their six listener processes' boot events and
#: the 132 ``StoreGet`` events those loops took frames with (126 HTTP
#: requests and responses, 6 GIOP requests and replies)
EVENTS = 692


def test_client_polling_miniature_total():
    """One server, one application, three portals polling for five
    simulated seconds: the whole run's event count, pinned."""
    collab, recorder = polling_miniature()
    assert recorder.stats("poll_rtt").count == POLLS
    assert collab.sim.events_dispatched == EVENTS
