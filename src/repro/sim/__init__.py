"""Deterministic discrete-event simulation kernel.

This package is the execution substrate for the whole reproduction: every
DISCOVER server, client portal, application, and network link runs as a
generator-based :class:`~repro.sim.process.Process` over a single
:class:`~repro.sim.kernel.Simulator` event loop with *virtual* time.

The design follows the classic process-interaction style (SimPy-like), built
from scratch so the repository is self-contained:

- :class:`Simulator` — the event heap and clock.
- :class:`SimEvent` — one-shot occurrences carrying a value; processes
  ``yield`` events to wait on them.
- :class:`Process` — a generator driven by the simulator; itself an event
  that fires when the generator terminates (so processes can be joined).
- :class:`Timeout` — an event that fires after a virtual delay.
- :class:`Store` — FIFO buffer with a blocking get and a refusing put
  (message queues, per-client output buffers).
- :class:`AnyOf` — waits for the first of several events (a reply raced
  against its timeout).

Everything is deterministic: ties in the event heap are broken by insertion
order, and randomness is only available through seeded generators from
:mod:`repro.sim.rng`.
"""

from repro.sim.errors import Interrupt, SimulationError, StopSimulation
from repro.sim.events import AnyOf, SimEvent, Timeout
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.resources import Store
from repro.sim.rng import DeterministicRNG

__all__ = [
    "AnyOf",
    "DeterministicRNG",
    "Interrupt",
    "Process",
    "SimEvent",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "Timeout",
]
