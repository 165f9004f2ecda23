"""The simulator: a clock and a bucketed (calendar-style) schedule.

The schedule has two tiers:

- **Current-instant buckets** — two plain deques (one per priority class,
  ``URGENT`` and ``NORMAL``) holding events scheduled for *exactly* ``now``.
  The dominant case in every scenario is an event triggered at the current
  instant (``succeed()``, process boots, zero timeouts, fused network
  callbacks); those dispatch O(1) with no tuple allocation and no heap
  traffic.
- **Overflow heap** — a classic ``heapq`` of *(time, priority, seq, event)*
  tuples for everything in the future.  When the buckets drain, the kernel
  advances the clock to the heap's earliest time and moves *every* entry at
  that instant into the buckets in (priority, seq) order, so cross-tier
  ordering is exactly the ordering a single global heap would produce.

An entry nobody waits on is not run.  When the clock reaches a heap entry
whose event succeeded by construction and has an empty callback list — the
``expiry`` timer of a request that was answered long ago — the kernel marks
it processed and moves on: no bucket append, no dispatch, no count in
``events_dispatched``.  "Nobody listens" is read off the event itself; there
is no cancel call and no tombstone.  What is never dropped: a failed event
(the kernel must surface its error), an event with a listener, and anything
already in the current-instant buckets.  The clock still visits the dropped
entry's instant, so the final ``now`` of a drained run does not move.

``seq`` is a monotonically increasing counter so simultaneous far-future
events are processed in insertion order; bucket order is insertion order by
construction.  This is what makes the whole reproduction deterministic — a
property-based differential test (``tests/sim/test_calendar_queue.py``) pins
the dispatch order against a reference single-heap schedule.

The kernel also keeps a free list of :class:`_PooledCallback` events for
internal fire-and-forget callbacks (network delivery chains, timers), so the
hot path schedules without allocating an event, a callbacks list, or a heap
tuple per occurrence.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import (Any, Callable, Deque, Dict, Generator, Iterator, List,
                    Optional, Tuple)

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import SimEvent, Timeout
from repro.sim.process import Process

#: Default priority for ordinary events.
NORMAL = 1
#: Priority used by the kernel for urgent bookkeeping (process resumption).
URGENT = 0


class _ScheduledCall:
    """Adapter turning a zero-arg function into an event callback.

    Used by :meth:`Simulator.call_later` instead of a per-call lambda (no
    closure cell, one slotted instance).
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn

    def __call__(self, _event: SimEvent) -> None:
        self.fn()


class _PooledCallback(SimEvent):
    """A recyclable internal event that runs one stored function.

    The event is its own (only) callback: when the kernel processes it, the
    stored function runs and the instance immediately returns itself to the
    simulator's free list.  Only kernel-internal machinery may use these —
    they are never handed to user code, never waited on, and never fail —
    which is what makes recycling safe.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, sim: "Simulator") -> None:
        super().__init__(sim)
        self.callbacks = [self]
        self._value = None
        self.fn: Optional[Callable[[Any], None]] = None
        self.arg: Any = None

    def __call__(self, _event: SimEvent) -> None:
        fn, arg = self.fn, self.arg
        self.fn = self.arg = None
        self.callbacks = [self]
        self._value = None
        self.sim._cb_pool.append(self)
        fn(arg)


class Simulator:
    """Discrete-event simulator with virtual time.

    Typical use::

        sim = Simulator()

        def producer(sim, store):
            for i in range(3):
                yield sim.timeout(1.0)
                store.try_put(i)

        store = Store(sim)
        sim.spawn(producer(sim, store))
        sim.run()
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: current virtual time.  Only the kernel writes it; assigning it
        #: from outside is not supported (scheduled entries keep their
        #: absolute times)
        self.now = float(start_time)
        #: far-future overflow: (time, priority, seq, event) tuples
        self._heap: List[Tuple[float, int, int, SimEvent]] = []
        self._seq = 0
        #: current-instant buckets, one per priority class
        self._bucket_urgent: Deque[SimEvent] = deque()
        self._bucket_normal: Deque[SimEvent] = deque()
        #: free list of recycled internal callback events
        self._cb_pool: List[_PooledCallback] = []
        #: the process currently executing, if any (``Process._resume``
        #: writes it around each resumption)
        self.active_process: Optional[Process] = None
        #: the scope slots of code running outside any process — the two a
        #: :class:`Process` carries.  The kernel never looks inside;
        #: ``repro.obs`` reads them off ``sim.active_process or sim``
        self.scope_span = self.scope_cost_key = None
        #: events whose callbacks the kernel ran (step() and run()); heap
        #: entries dropped because nobody listened are not in it.  The cost
        #: ledger reads deltas of this to attribute "sim events" per request
        self.events_dispatched = 0
        #: optional repro.obs.DispatchProfiler — when set (before run()),
        #: every event dispatch is routed through it for interval sampling
        self.profiler = None
        #: one id sequence per kind, made at the kind's first draw
        self._id_seqs: Dict[str, Iterator[int]] = {}

    # -- ids ---------------------------------------------------------------
    def next_id(self, kind: str, start: int = 1) -> int:
        """The next id of ``kind`` in this simulation: ``start`` at the
        kind's first draw, then one more at each.

        Frames, processes, messages, ports and the rest each draw from
        their own kind; the kernel knows none of them.  Ids ride the wire
        as digits, so a run's bytes depend on its own draws only, never on
        what ran before it in the process.
        """
        try:
            return next(self._id_seqs[kind])
        except KeyError:
            seq = self._id_seqs[kind] = itertools.count(start)
            return next(seq)

    # -- event creation -----------------------------------------------------
    def event(self) -> SimEvent:
        """Create a pending event to be triggered manually."""
        return SimEvent(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` virtual time units."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` that fires at absolute virtual time ``when``
        (>= now): the waitable sibling of :meth:`schedule_at`, same ``seq``
        tiebreak, and there for the same two-addition reason — a process
        that accumulated ``when`` over several steps keeps it bit-for-bit
        only by handing over the sum, not a delay.  ``when == now`` lands
        in the current-instant bucket, as ``timeout(0.0)`` does.
        """
        if when > self.now:
            ev = Timeout.__new__(Timeout)
            SimEvent.__init__(ev, self)
            ev.delay = when - self.now
            ev._value = value
            self._seq += 1
            heapq.heappush(self._heap, (when, NORMAL, self._seq, ev))
            return ev
        if when == self.now:
            return Timeout(self, 0.0, value)
        raise SimulationError(
            f"timeout_at({when}) is in the past (now={self.now})")

    def spawn(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process driven by ``generator``."""
        return Process(self, generator, name=name)

    def call_later(self, delay: float, fn: Callable[[], None]) -> SimEvent:
        """Run ``fn()`` after ``delay`` virtual time units."""
        ev = self.timeout(delay)
        ev.callbacks.append(_ScheduledCall(fn))
        return ev

    # -- scheduling (kernel internal) ----------------------------------------
    def _push_event(self, event: SimEvent, delay: float = 0.0,
                    priority: int = NORMAL) -> None:
        """Put a triggered event on the schedule for processing."""
        if delay == 0.0:
            # Current instant: O(1) bucket append, no tuple, no heap.
            if priority == NORMAL:
                self._bucket_normal.append(event)
            else:
                self._bucket_urgent.append(event)
        else:
            self._seq += 1
            heapq.heappush(self._heap,
                           (self.now + delay, priority, self._seq, event))

    def schedule_fn(self, delay: float, fn: Callable[[Any], None],
                    arg: Any = None, priority: int = NORMAL) -> None:
        """Run ``fn(arg)`` after ``delay`` using a pooled internal event.

        The event is recycled the moment it is processed, so this is the
        allocation-free way for infrastructure (network delivery, timers
        that nobody waits on) to schedule work.  The event is not returned
        — it must never be waited on or cancelled.
        """
        pool = self._cb_pool
        ev = pool.pop() if pool else _PooledCallback(self)
        ev.fn = fn
        ev.arg = arg
        self._push_event(ev, delay=delay, priority=priority)

    def schedule_at(self, when: float, fn: Callable[[Any], None],
                    arg: Any = None, priority: int = NORMAL) -> None:
        """Run ``fn(arg)`` at absolute virtual time ``when`` (>= now): the
        sibling of :meth:`schedule_fn`, same pool, same ``seq`` tiebreak.

        It exists because a time reached by two additions cannot be handed
        over as a delay: ``now + ((now + a + b) - now)`` is not the float
        ``now + a + b``.  A caller that fuses two scheduling steps into one
        (a link hop: transmission, then propagation) keeps every simulated
        time bit-for-bit only by passing the sum it computed itself.
        """
        if when > self.now:
            pool = self._cb_pool
            ev = pool.pop() if pool else _PooledCallback(self)
            ev.fn = fn
            ev.arg = arg
            self._seq += 1
            heapq.heappush(self._heap, (when, priority, self._seq, ev))
        elif when == self.now:
            self.schedule_fn(0.0, fn, arg, priority)
        else:
            raise SimulationError(
                f"schedule_at({when}) is in the past (now={self.now})")

    # -- running -------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next event that will run, or ``inf`` if none.

        Heap entries nobody listens to do not count: unless somebody
        attaches to them first, the kernel drops them unrun.
        """
        if self._bucket_urgent or self._bucket_normal:
            return self.now
        return min((item[0] for item in self._heap
                    if item[3].callbacks or not item[3]._ok),
                   default=float("inf"))

    def _advance(self) -> bool:
        """Move the clock to the heap's earliest instant and bucket every
        event scheduled there that somebody listens to (or that failed);
        the others are marked processed and dropped, so the buckets may
        still be empty afterwards.  Returns False if the heap was empty."""
        heap = self._heap
        if not heap:
            return False
        when = heap[0][0]
        self.now = when
        pop = heapq.heappop
        urgent, normal = self._bucket_urgent, self._bucket_normal
        while heap and heap[0][0] == when:
            item = pop(heap)
            event = item[3]
            if not event.callbacks and event._ok:
                event.callbacks = None
            elif item[1] == NORMAL:
                normal.append(event)
            else:
                urgent.append(event)
        return True

    def step(self) -> None:
        """Process exactly one event.

        Shares the run() dispatch path exactly: same bucket selection, same
        fast ``_ok`` / ``_defused`` attribute reads — a failed, defused
        event behaves identically under ``step()`` and ``run()``.
        """
        while not (self._bucket_urgent or self._bucket_normal):
            if not self._advance():
                raise SimulationError("step() on an empty schedule")
        if self._bucket_urgent:
            event = self._bucket_urgent.popleft()
        else:
            event = self._bucket_normal.popleft()
        callbacks, event.callbacks = event.callbacks, None
        self.events_dispatched += 1
        if self.profiler is None:
            for cb in callbacks:
                cb(event)
        else:
            self.profiler.dispatch(event, callbacks)
        if not event._ok and not event._defused:
            # A failed event nobody waited on: surface the error.
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run until the schedule is empty, a time, or an event.

        ``until`` may be ``None`` (drain everything), a number (absolute
        virtual time to stop at), or a :class:`SimEvent` (stop when it has
        been processed; its value is returned).
        """
        stop_event: Optional[SimEvent] = None
        if until is None:
            pass
        elif isinstance(until, SimEvent):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
            stop_event.callbacks.append(self._stop_on_event)
        else:
            at = float(until)
            if at < self.now:
                raise SimulationError(
                    f"run(until={at}) is in the past (now={self.now})")
            # A plain marker event at the stop time.
            marker = self.timeout(at - self.now)
            stop_event = marker
            marker.callbacks.append(self._stop_on_event)

        # Inlined dispatch with locals bound outside the loop — this is the
        # hottest loop in the repository (every event of every scenario).
        heap = self._heap
        urgent = self._bucket_urgent
        normal = self._bucket_normal
        pop = heapq.heappop
        profiler = self.profiler
        try:
            while True:
                if urgent:
                    event = urgent.popleft()
                elif normal:
                    event = normal.popleft()
                elif heap:
                    # _advance() inlined: bucket every listened-to event at
                    # the next instant, so cross-tier ordering matches a
                    # single global heap; drop the ones nobody waits on.
                    when = heap[0][0]
                    self.now = when
                    while heap and heap[0][0] == when:
                        item = pop(heap)
                        event = item[3]
                        if not event.callbacks and event._ok:
                            event.callbacks = None
                        elif item[1] == NORMAL:
                            normal.append(event)
                        else:
                            urgent.append(event)
                    continue
                else:
                    break
                callbacks, event.callbacks = event.callbacks, None
                # Kept live (not a loop local): the cost ledger reads
                # deltas of this counter *mid-run* to attribute events.
                self.events_dispatched += 1
                if profiler is None:
                    for cb in callbacks:
                        cb(event)
                else:
                    profiler.dispatch(event, callbacks)
                if not event._ok and not event._defused:
                    # A failed event nobody waited on: surface the error.
                    raise event._value
        except StopSimulation as stop:
            return stop.value
        if stop_event is not None and not stop_event.processed:
            raise SimulationError(
                "run() schedule drained before the `until` event fired")
        return None

    @staticmethod
    def _stop_on_event(event: SimEvent) -> None:
        if not event._ok:
            # Surface the failure (e.g. an exception escaping the process
            # run() was waiting on) instead of silently returning None.
            event.defuse()
            raise event._value
        raise StopSimulation(event._value)
