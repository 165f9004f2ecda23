"""Interaction agents: execute steering commands against a control network.

The agent is the application-side half of the paper's command path: the
server forwards a client's :class:`~repro.wire.CommandMessage` to the
application, and the agent turns it into parameter reads/writes, sensor
samples, actuator invocations, or lifecycle transitions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from repro.steering.controlnet import SteeringError

if TYPE_CHECKING:  # pragma: no cover
    from repro.steering.application import SteerableApplication


class InteractionAgent:
    """Command dispatcher superimposed on one application."""

    #: commands that modify application state and therefore require the
    #: steering lock (enforced server-side; listed here for the interface)
    MUTATING_COMMANDS = frozenset(
        {"set_param", "actuate", "pause", "resume", "stop"})

    def __init__(self, app: "SteerableApplication") -> None:
        self.app = app
        self.commands_handled = 0

    def handle(self, command: str, args: Dict[str, Any]) -> Any:
        """Execute one command; returns its result (raises SteeringError)."""
        handler = self.COMMANDS.get(command)
        if handler is None:
            raise SteeringError(f"unknown command {command!r}")
        self.commands_handled += 1
        return handler(self, **args)

    # -- queries ----------------------------------------------------------
    def _cmd_get_param(self, name: str) -> Any:
        return self.app.control.parameter(name).value

    def _cmd_list_params(self) -> list:
        return [p.descriptor() for p in self.app.control.parameters.values()]

    def _cmd_read_sensor(self, name: str) -> Any:
        return self.app.control.sensor(name).read()

    def _cmd_describe(self) -> dict:
        return self.app.control.interface_descriptor()

    def _cmd_status(self) -> dict:
        return self.app.status()

    # -- mutations ---------------------------------------------------------
    def _cmd_set_param(self, name: str, value: Any) -> Any:
        return self.app.control.parameter(name).set(value)

    def _cmd_actuate(self, name: str, **kwargs: Any) -> Any:
        return self.app.control.actuator(name).actuate(**kwargs)

    def _cmd_pause(self) -> str:
        return self.app.request_pause()

    def _cmd_resume(self) -> str:
        return self.app.request_resume()

    def _cmd_stop(self) -> str:
        return self.app.request_stop()

    #: command name -> handler: a command costs one dict lookup and builds
    #: no attribute name (a looked-up name can outlive the call in the
    #: interpreter's type attribute cache)
    COMMANDS = {
        "get_param": _cmd_get_param,
        "list_params": _cmd_list_params,
        "read_sensor": _cmd_read_sensor,
        "describe": _cmd_describe,
        "status": _cmd_status,
        "set_param": _cmd_set_param,
        "actuate": _cmd_actuate,
        "pause": _cmd_pause,
        "resume": _cmd_resume,
        "stop": _cmd_stop,
    }
