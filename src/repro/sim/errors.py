"""Exception types used by the simulation kernel."""

from __future__ import annotations

from typing import Any


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel itself."""


class StopSimulation(Exception):
    """Raised internally (or by user code) to end :meth:`Simulator.run`.

    The positional argument, if any, becomes the return value of ``run``.
    """

    @property
    def value(self) -> Any:
        return self.args[0] if self.args else None


class Interrupt(Exception):
    """Thrown *into* a process that another process interrupted.

    The interrupting party supplies an arbitrary ``cause`` describing why the
    victim was interrupted (e.g. a steering session being torn down while a
    client is blocked polling for updates).
    """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Interrupt(cause={self.args[0]!r})"
