"""Generator-based simulation processes.

A process wraps a generator.  Each value the generator yields must be a
:class:`~repro.sim.events.SimEvent`; the process sleeps until that event
fires, then resumes with the event's value (``yield`` evaluates to it).  If
the event failed, its exception is thrown into the generator instead.

A :class:`Process` is itself an event that fires when the generator
terminates, so processes can be joined (``yield other_process``) and raced
with :class:`AnyOf`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Process(SimEvent):
    """A running generator, resumable by the kernel.

    The process-event fires with the generator's return value when it ends
    normally, and fails with the exception if the generator raises.

    A process nobody has joined by the time it returns ends without an
    event: it records its value and is ``processed`` at once, so a later
    ``yield proc``, ``AnyOf([proc, ...])`` or ``run(until=proc)`` continues
    immediately.  A process that *fails* always goes through the schedule,
    so the kernel surfaces an error nobody waited for.
    """

    __slots__ = ("generator", "name", "pid", "_waiting_on",
                 "scope_span", "scope_cost_key")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: Optional[str] = None) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process needs a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.pid = sim.next_id("process")
        self.name = name or getattr(generator, "__name__", f"process-{self.pid}")
        self._waiting_on: Optional[SimEvent] = None
        #: innermost open scope (the tracer's span, the ledger's roll-up
        #: key; ``repro.obs`` owns them): none, whatever the spawner has open
        self.scope_span = self.scope_cost_key = None
        # Kick off at the current instant (urgent so spawn order is preserved
        # relative to other same-time events).
        boot = SimEvent(sim)
        boot.callbacks.append(self._resume)
        boot._ok = True
        boot._value = None
        sim._bucket_urgent.append(boot)

    # -- public ------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        Interrupting a dead process is an error; interrupting a process that
        is not currently waiting (e.g. it was just spawned at the same
        instant) delivers the interrupt when it next yields.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self.sim.active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        # Detach from whatever we were waiting on, then schedule delivery.
        target = self._waiting_on
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        self._waiting_on = None
        hit = SimEvent(self.sim)
        hit._ok = False
        hit._value = Interrupt(cause)
        hit._defused = True
        hit.callbacks.append(self._resume)
        self.sim._push_event(hit, priority=0)

    # -- kernel ----------------------------------------------------------
    def _resume(self, event: SimEvent) -> None:
        self._waiting_on = None
        prev, self.sim.active_process = self.sim.active_process, self
        try:
            while True:
                try:
                    if event.ok:
                        target = self.generator.send(event.value)
                    else:
                        event.defuse()
                        target = self.generator.throw(event.value)
                except StopIteration as stop:
                    if not self.triggered:
                        if self.callbacks:
                            self.succeed(stop.value)
                        else:  # nobody joined: nothing to dispatch
                            self._value = stop.value
                            self.callbacks = None
                    return
                except BaseException as exc:
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    if not self.triggered:
                        self.fail(exc)
                    return

                if not isinstance(target, SimEvent):
                    err = SimulationError(
                        f"process {self.name!r} yielded {target!r}, "
                        f"which is not a SimEvent")
                    event = SimEvent(self.sim)
                    event._ok = False
                    event._value = err
                    event._defused = True
                    continue
                if target.sim is not self.sim:
                    raise SimulationError(
                        "yielded an event belonging to a different simulator")
                if target.processed:
                    # Already over: loop around immediately with its value.
                    event = target
                    continue
                target.callbacks.append(self._resume)
                self._waiting_on = target
                return
        finally:
            self.sim.active_process = prev

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "dead" if self.triggered else "alive"
        return f"<Process {self.name!r} pid={self.pid} {state}>"
