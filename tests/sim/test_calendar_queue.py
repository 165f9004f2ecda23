"""Differential test: the bucketed (calendar) schedule vs a single heap.

The kernel replaces one global ``heapq`` with current-instant buckets plus
a far-future overflow heap.  The ordering contract is that dispatch order
is *identical* to what the single heap would produce: (time, priority,
insertion-seq) — same-tick bursts, far-future outliers, and events that
schedule further events mid-dispatch included.  This property test drives
both schedulers with the same randomized workload and compares the full
dispatch sequences.

Entries reach the schedule the ways the kernel offers — a pooled
callback by delay (``schedule_fn``) or by absolute time (``schedule_at``),
and a ``Timeout``, by delay (``timeout``) or by absolute time
(``timeout_at``), that somebody listens to or whose listener went away
before it fired.  The kernel drops the last kind unrun, so the contract
is: the survivors dispatch in exactly the reference's order with the
abandoned entries deleted, and ``events_dispatched`` counts the survivors.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.kernel import NORMAL, URGENT

#: a workload is a list of root entries; each entry carries the delays /
#: priorities of children it schedules at the moment it fires (so the
#: schedule grows while it is being drained, like real processes do)
_delays = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.5, 1e6])
_priorities = st.sampled_from([NORMAL, NORMAL, NORMAL, URGENT])
_kinds = st.sampled_from(["delay", "delay", "absolute", "timer", "abandoned",
                          "timer_at", "abandoned_at"])
_child = st.tuples(_delays, _priorities, _kinds)
_entry = st.tuples(_delays, _priorities, _kinds, st.lists(_child, max_size=3))
_workload = st.lists(_entry, min_size=1, max_size=30)


def _as_scheduled(delay, priority, kind):
    """A timeout is always NORMAL, and one due this instant is already in
    the bucket, where nothing is dropped: it counts as listened to."""
    if kind.startswith(("timer", "abandoned")):
        priority = NORMAL
        if delay == 0.0:
            kind = kind.replace("abandoned", "timer")
    return delay, priority, kind


class _ReferenceSchedule:
    """The classic single-heap scheduler the kernel used before PR 6."""

    def __init__(self) -> None:
        self.heap: list = []
        self.seq = 0
        self.now = 0.0

    def push(self, delay: float, priority: int, label: object) -> None:
        self.seq += 1
        heapq.heappush(self.heap,
                       (self.now + delay, priority, self.seq, label))

    def drain(self, on_fire) -> list:
        order = []
        while self.heap:
            when, _prio, _seq, label = heapq.heappop(self.heap)
            self.now = when
            order.append((when, label))
            on_fire(self, label)
        return order


def _dispatch_with_simulator(workload, *, stepwise: bool) -> list:
    sim = Simulator()
    order = []

    def schedule(entry, label):
        delay, priority, kind = _as_scheduled(*entry)
        if kind == "delay":
            sim.schedule_fn(delay, fire, label, priority=priority)
        elif kind == "absolute":
            sim.schedule_at(sim.now + delay, fire, label, priority=priority)
        else:
            def listener(_event):
                fire(label)
            timer = (sim.timeout_at(sim.now + delay) if kind.endswith("_at")
                     else sim.timeout(delay))
            timer.callbacks.append(listener)
            if kind.startswith("abandoned"):
                timer.callbacks.remove(listener)

    def fire(label):
        order.append((sim.now, label))
        _idx, children = label
        for cidx, child in enumerate(children):
            schedule(child, ((_idx, cidx), ()))

    for idx, (*entry, children) in enumerate(workload):
        schedule(entry, (idx, tuple(children)))
    if stepwise:
        while sim.peek() != float("inf"):
            sim.step()
    else:
        sim.run()
    assert sim.events_dispatched == len(order)
    return order


def _dispatch_with_reference(workload) -> list:
    ref = _ReferenceSchedule()

    def push(entry, label):
        delay, priority, kind = _as_scheduled(*entry)
        if not kind.startswith("abandoned"):
            ref.push(delay, priority, label)

    def on_fire(_sched, label):
        _idx, children = label
        for cidx, child in enumerate(children):
            push(child, ((_idx, cidx), ()))

    for idx, (*entry, children) in enumerate(workload):
        push(entry, (idx, tuple(children)))
    return ref.drain(on_fire)


@settings(max_examples=200, deadline=None)
@given(_workload)
def test_bucketed_schedule_matches_single_heap_order(workload):
    assert (_dispatch_with_simulator(workload, stepwise=False)
            == _dispatch_with_reference(workload))


@settings(max_examples=100, deadline=None)
@given(_workload)
def test_step_dispatches_in_run_order(workload):
    """step()-ing the whole schedule gives exactly the run() sequence."""
    assert (_dispatch_with_simulator(workload, stepwise=True)
            == _dispatch_with_simulator(workload, stepwise=False))
