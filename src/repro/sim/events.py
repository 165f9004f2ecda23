"""One-shot events that processes wait on.

An event goes through three states: *pending* (created, not yet fired),
*triggered* (scheduled on the event heap), and *processed* (its callbacks
have run).  Processes wait on an event by ``yield``-ing it; the kernel adds
the process's resume callback to the event.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

from repro.sim.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

PENDING = object()
"""Sentinel for the value of an event that has not fired yet."""


class SimEvent:
    """A one-shot occurrence in virtual time, carrying a value.

    Events may *succeed* (carry a value) or *fail* (carry an exception, which
    is re-raised inside any process waiting on the event).  Both transitions
    are final; triggering an event twice is an error.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        #: callbacks run when the event is processed; each receives the event
        self.callbacks: Optional[List[Callable[["SimEvent"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has fired (value/exception is set)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception instance if it failed)."""
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    # -- transitions ----------------------------------------------------
    def succeed(self, value: Any = None) -> "SimEvent":
        """Fire the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inlined self.sim._push_event(self): succeed() is the single most
        # frequent scheduling operation — always current-instant, NORMAL.
        self.sim._bucket_normal.append(self)
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Fire the event with an exception.

        The exception is re-raised in every waiting process.  If *nothing*
        waits on a failed event by the time it is processed, the kernel
        re-raises it to surface programming errors (``defused`` suppresses
        this, mirroring SimPy).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.sim._bucket_normal.append(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled even if nobody waits on it."""
        self._defused = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at 0x{id(self):x}>"


class Timeout(SimEvent):
    """An event that fires ``delay`` units of virtual time after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        # SimEvent.__init__ and sim._push_event inlined: timeouts are created
        # for every service time and compute step, so the two extra calls and
        # the default-argument dance show up in every scenario profile.
        self.sim = sim
        self.callbacks = []
        self._defused = False
        self.delay = delay
        self._ok = True
        self._value = value
        if delay == 0.0:
            sim._bucket_normal.append(self)
        else:
            sim._seq += 1
            heapq.heappush(sim._heap, (sim.now + delay, 1, sim._seq, self))


class AnyOf(SimEvent):
    """Fires as soon as *any* member event fires; fails if that one failed.

    The value is a dict ``{member: value}`` with exactly one entry: the
    first of ``events`` already processed when the condition is made, or
    else the first member whose callbacks run after that.

    The condition listens to its members only until it is decided: the
    moment it fires or fails it takes its callback back from the members
    that have not fired.  The loser of a race — the 30 s ``expiry`` timer
    of a call that was answered in 2 ms — is then an event nobody listens
    to, which the kernel drops when the clock reaches it instead of
    dispatching it.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent]) -> None:
        super().__init__(sim)
        self.events: List[SimEvent] = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
        # Register interest; a member already processed decides at once.
        for ev in self.events:
            if ev.processed:
                self._on_fire(ev)
            elif self._value is PENDING:
                ev.callbacks.append(self._on_fire)
        if not self.events:
            self.succeed({})  # nothing to wait for: decided at once

    def _on_fire(self, event: SimEvent) -> None:
        if self._value is not PENDING:
            return
        if event.ok:
            self.succeed({event: event.value})
        else:
            event.defuse()
            self.fail(event.value)
        on_fire = self._on_fire
        for ev in self.events:
            if ev.callbacks is not None:
                try:
                    ev.callbacks.remove(on_fire)
                except ValueError:
                    pass
