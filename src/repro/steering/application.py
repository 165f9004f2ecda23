"""Steerable application base class and its home-server protocol.

An application alternates **compute phases** (numerical stepping, virtual
time per step) and **interaction phases**.  The paper's DaemonServlet
"buffers all client requests and sends them to the application when the
application is in the 'interaction' phase.  This ensures that requests are
not lost while the application is busy computing" (§4.1) — so the
application announces its phase transitions on the control channel, and the
server flushes buffered commands only while the application is interacting.

Since nothing outside the application can see inside a compute phase, a
compute phase is one timer.  Its steps run back to back at the phase's
start, adding ``step_time`` to the phase's end instant once per step (the
sum a chain of per-step timers would reach, bit for bit), and the phase
waits once, on :meth:`~repro.sim.Simulator.timeout_at` of that instant.
Lifecycle requests take effect at phase boundaries: pause, resume and stop
arrive through the :class:`InteractionAgent` in the interaction phase, and
an out-of-band :meth:`request_stop` (``CogJobService.cancel_job``) lets the
current phase finish — the final update and the deregistration go out at
its end instant.  A ``step_time`` of 0 makes one zero-delay timer.

Channel protocol over the custom TCP channel (application → home server's
daemon port):

================  =========================================================
message            meaning
================  =========================================================
RegisterMessage    authenticate and advertise the steering interface + ACL
ControlMessage     ``phase`` events (``interaction`` / ``compute``) and
                   ``deregister``
UpdateMessage      periodic monitored-sensor payload (MainChannel)
ResponseMessage /  reply to a forwarded client command (ResponseChannel)
ErrorMessage
================  =========================================================

Server → application: :class:`~repro.wire.CommandMessage` (CommandChannel).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.sim import AnyOf
from repro.steering.agents import InteractionAgent
from repro.steering.controlnet import ControlNetwork, SteeringError
from repro.steering.lifecycle import (
    COMPUTING,
    INTERACTING,
    PAUSED,
    REGISTERING,
    STOPPED,
)
from repro.wire import (
    AckMessage,
    CommandMessage,
    ControlMessage,
    ErrorMessage,
    RegisterMessage,
    ResponseMessage,
    UpdateMessage,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: the port DISCOVER daemons listen on for application connections
DAEMON_PORT = 7070

_app_ports = itertools.count(20000)


@dataclass
class AppConfig:
    """Timing knobs for the compute/interaction lifecycle."""

    #: numerical steps per compute phase
    steps_per_phase: int = 10
    #: virtual seconds of compute per step
    step_time: float = 0.05
    #: how long each interaction phase stays open for buffered commands
    interaction_window: float = 0.02
    #: virtual seconds to execute one steering command inside the app
    command_service_time: float = 0.002
    #: polling cadence while paused (still serving interaction)
    paused_poll: float = 0.25
    #: stop after this many total steps (None = run until stopped)
    total_steps: Optional[int] = None
    #: give up on registration after this long without an ack
    register_timeout: float = 10.0


class SteerableApplication:
    """Base class for applications steered through DISCOVER.

    Subclasses define ``setup()`` (register parameters/sensors/actuators
    on ``self.control``) and ``step(index)`` (one numerical step).
    """

    def __init__(self, host: "Host", name: str, server_host: str, *,
                 auth_token: str = "", acl: Optional[Dict[str, str]] = None,
                 config: Optional[AppConfig] = None,
                 daemon_port: int = DAEMON_PORT) -> None:
        self.host = host
        self.sim = host.sim
        self.name = name
        self.server_host = server_host
        self.daemon_port = daemon_port
        self.auth_token = auth_token or f"token-{name}"
        self.acl: Dict[str, str] = dict(acl or {})
        self.config = config or AppConfig()
        self.control = ControlNetwork()
        self.agent = InteractionAgent(self)
        self.endpoint = host.bind(next(_app_ports))
        self.state = REGISTERING
        self.app_id: Optional[str] = None
        self.step_index = 0
        self.update_seq = 0
        self.registered = False
        self._proc = None
        self.setup()

    # -- subclass surface ---------------------------------------------------
    def update_payload(self) -> dict:
        """Payload of each periodic update: monitored sensors + status."""
        payload = self.control.monitored_views()
        payload["_step"] = self.step_index
        payload["_state"] = self.state
        return payload

    # -- lifecycle control (called by the InteractionAgent) ------------------
    def request_pause(self) -> str:
        if self.state == STOPPED:
            raise SteeringError("application already stopped")
        self.state = PAUSED
        return PAUSED

    def request_resume(self) -> str:
        if self.state == STOPPED:
            raise SteeringError("application already stopped")
        if self.state == PAUSED:
            self.state = INTERACTING
        return self.state

    def request_stop(self) -> str:
        self.state = STOPPED
        return STOPPED

    def status(self) -> dict:
        """Current lifecycle status, wire-safe."""
        return {
            "name": self.name,
            "app_id": self.app_id,
            "state": self.state,
            "step": self.step_index,
            "sim_time": self.sim.now,
        }

    # -- execution -----------------------------------------------------------
    def start(self):
        """Spawn the application's main process; returns it (joinable)."""
        if self._proc is not None:
            raise SteeringError(f"{self.name} already started")
        self._proc = self.sim.spawn(self._run(), name=f"app-{self.name}")
        return self._proc

    @property
    def process(self):
        return self._proc

    def _send(self, msg) -> None:
        msg.sender = self.host.name
        msg.destination = self.server_host
        if self.app_id is not None:
            msg.app_id = self.app_id
        self.endpoint.send(self.server_host, self.daemon_port, msg,
                           channel=msg.channel)

    def _run(self):
        if not (yield from self._register()):
            self.state = STOPPED
            return
        cfg = self.config
        while self.state != STOPPED:
            if self.state != PAUSED:
                yield from self._compute_phase()
                self._send_update()
                if (cfg.total_steps is not None
                        and self.step_index >= cfg.total_steps):
                    self.state = STOPPED
            if self.state == STOPPED:
                break
            yield from self._interaction_phase()
        self._send(ControlMessage("deregister"))
        self._send_update()  # final state so portals see "stopped"

    def _register(self):
        reg = RegisterMessage(self.name, self.auth_token,
                              self.control.interface_descriptor(), self.acl)
        self._send(reg)
        expiry = self.sim.timeout(self.config.register_timeout)
        while True:
            get_ev = self.endpoint.inbox.get()
            fired = yield AnyOf(self.sim, [get_ev, expiry])
            if get_ev not in fired:
                self.endpoint.inbox.cancel(get_ev)
                return False
            frame = fired[get_ev]
            msg = frame.payload
            if isinstance(msg, AckMessage) and msg.request_id == reg.msg_id:
                if not msg.ok:
                    return False
                self.app_id = msg.info
                self.registered = True
                return True
            # anything else pre-registration is dropped

    def _compute_phase(self):
        self.state = COMPUTING
        self._send(ControlMessage("phase", detail=COMPUTING))
        step_time = self.config.step_time
        when = self.sim.now
        for _ in range(self.config.steps_per_phase):
            self.step(self.step_index)
            self.step_index += 1
            when += step_time
        yield self.sim.timeout_at(when)

    def _send_update(self) -> None:
        self.update_seq += 1
        self._send(UpdateMessage(self.update_payload(), seq=self.update_seq,
                                 timestamp=self.sim.now))

    def _interaction_phase(self):
        paused = self.state == PAUSED
        if not paused:
            self.state = INTERACTING
        self._send(ControlMessage("phase", detail=INTERACTING))
        window = (self.config.paused_poll if paused
                  else self.config.interaction_window)
        deadline = self.sim.now + window
        while True:
            remaining = deadline - self.sim.now
            if remaining <= 0:
                break
            get_ev = self.endpoint.inbox.get()
            expiry = self.sim.timeout(remaining)
            fired = yield AnyOf(self.sim, [get_ev, expiry])
            if get_ev in fired:
                yield from self._handle_frame(fired[get_ev])
                if self.state == STOPPED:
                    return
            else:
                self.endpoint.inbox.cancel(get_ev)
                break

    def _handle_frame(self, frame):
        msg = frame.payload
        if not isinstance(msg, CommandMessage):
            return
        if self.config.command_service_time > 0:
            yield self.sim.timeout(self.config.command_service_time)
        try:
            result = self.agent.handle(msg.command, msg.args)
            reply = ResponseMessage(msg.request_id, result,
                                    client_id=msg.client_id)
        except SteeringError as exc:
            reply = ErrorMessage(msg.request_id, str(exc), code="STEERING",
                                 client_id=msg.client_id)
        self._send(reply)
