"""The daemon: bridge between a server and its local applications.

§4.1: "The Daemon servlet forms the bridge between the server and the
applications.  Each application is authenticated at the server using a
pre-assigned unique identifier.  The daemon servlet creates an Application
Proxy for each new application that connects to it ... It also assigns the
application a unique session identifier."

§5.2.1 fixes the identifier scheme: "The application identifier is chosen
to be a combination of the server's IP address and a local count of the
applications on each server ... the server's IP address can be extracted
from this application identifier, making it very easy to determine if the
application is a local application or a remote application."  We use
``<server-name>#a<count>`` (:func:`repro.directory.make_app_id`) and
:func:`repro.directory.home_server_of` extracts the server.

The daemon listens on the custom TCP channel (cheap per-message cost —
the reason one server supports >40 applications but only ~20 HTTP clients).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.proxy import ApplicationProxy
from repro.directory import make_app_id
from repro.pipeline.core import PLANE_CHANNEL, Pipeline, RequestContext
from repro.steering.application import DAEMON_PORT
from repro.wire import (
    AckMessage,
    CommandMessage,
    ControlMessage,
    ErrorMessage,
    Message,
    RegisterMessage,
    ResponseMessage,
    UpdateMessage,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.server import DiscoverServer


class DaemonService:
    """Listens for application connections on the daemon port."""

    def __init__(self, server: "DiscoverServer",
                 port: int = DAEMON_PORT,
                 pipeline: Optional[Pipeline] = None) -> None:
        self.server = server
        self.sim = server.sim
        self.port = port
        self.endpoint = server.host.bind(port)
        self._app_count = 0
        if pipeline is None:
            # Late import: repro.pipeline.interceptors imports the core
            # managers, which import this module.  The default chain must
            # include the security interceptor — registration auth (§4.1)
            # lives there now.
            from repro.pipeline.interceptors import default_pipeline
            pipeline = default_pipeline(clock=lambda: self.sim.now,
                                        security=server.security)
        #: interceptor chain every channel message dispatches through
        self.pipeline = pipeline
        self._proc = self.sim.spawn(self._listen(),
                                    name=f"daemon@{server.name}")

    def stop(self) -> None:
        if self._proc.is_alive:
            self._proc.interrupt("daemon stop")
        self.endpoint.close()

    def next_app_id(self) -> str:
        """Mint the next app id by the §5.2.1 convention."""
        self._app_count += 1
        self.server.journal.append("daemon.seq", {"n": self._app_count})
        return make_app_id(self.server.name, self._app_count)

    # -- durable state plane hooks ----------------------------------------
    def seq_state(self) -> dict:
        return {"n": self._app_count}

    def restore_seq(self, state: dict) -> None:
        self._app_count = max(self._app_count, state.get("n", 0))

    def apply_seq_event(self, event: str, data: dict, at: float) -> None:
        if event == "seq":
            self._app_count = max(self._app_count, data.get("n", 0))

    def forward_command(self, app_host: str, app_port: int,
                        cmd: CommandMessage) -> None:
        """Send a command to the application over its channel."""
        self.endpoint.send(app_host, app_port, cmd, channel="command")

    # -- listener -------------------------------------------------------------
    def _listen(self):
        from repro.sim import Interrupt
        costs = self.server.costs
        try:
            while True:
                frame = yield self.endpoint.recv()
                msg = frame.payload
                if not isinstance(msg, Message):
                    self.server.log.warn(
                        "daemon.frame_dropped", reason="not a Message",
                        src=frame.src_host, payload=type(msg).__name__)
                    self.server.health.note_channel_failure()
                    continue
                # custom-TCP-channel service cost on the server CPU
                cpu_cost = costs.tcp_cost(frame.size)
                yield from self.server.host.use_cpu(cpu_cost)
                ctx = RequestContext(PLANE_CHANNEL, request_id=msg.msg_id,
                                     principal=frame.src_host,
                                     operation=type(msg).__name__,
                                     size=frame.size, request=msg,
                                     trace_parent=frame.trace_ctx,
                                     cpu_cost=cpu_cost)

                def dispatch(_ctx, frame=frame, msg=msg):
                    return self._dispatch(frame, msg)

                reply = yield from self.pipeline.execute(ctx, dispatch)
                if reply is None:
                    continue
                if isinstance(reply, str):  # the envelope refused it
                    reply = AckMessage(msg.msg_id, ok=False, info=reply,
                                       msg_id=self.sim.next_id("msg"))
                self.endpoint.send(frame.src_host, frame.src_port, reply,
                                   channel="response", trace_ctx=ctx.trace_ctx)
        except Interrupt:
            return

    def _dispatch(self, frame, msg: Message) -> Optional[Message]:
        """Pipeline handler: route one channel message; returns the reply
        message (if any) for the listener to send.  Registration auth
        already happened in the chain's security interceptor."""
        if isinstance(msg, RegisterMessage):
            return self._on_register(frame, msg)
        if isinstance(msg, UpdateMessage):
            self.server.on_app_update(msg)
        elif isinstance(msg, (ResponseMessage, ErrorMessage)):
            self.server.on_app_response(msg)
        elif isinstance(msg, ControlMessage):
            if msg.event == "phase":
                self.server.on_app_phase(msg.app_id, msg.detail)
            elif msg.event == "deregister":
                self.server.on_app_deregister(msg.app_id)
            else:
                self.server.log.warn(
                    "daemon.unknown_control_event", control_event=msg.event,
                    app_id=msg.app_id, src=frame.src_host)
        else:
            self.server.log.warn(
                "daemon.unhandled_message", message=type(msg).__name__,
                src=frame.src_host)
        return None

    def _on_register(self, frame, msg: RegisterMessage) -> AckMessage:
        app_id = self.next_app_id()
        proxy = ApplicationProxy(
            app_id, msg.app_name, msg.interface, msg.acl,
            app_host=frame.src_host, app_port=frame.src_port,
            owner=self._owner_from_acl(msg.acl),
            forward=self.forward_command)
        self.server.on_app_register(proxy)
        return AckMessage(msg.msg_id, ok=True, info=app_id,
                          msg_id=self.sim.next_id("msg"))

    @staticmethod
    def _owner_from_acl(acl: dict) -> str:
        """The application's owning user: first write-privileged entry."""
        for user, priv in acl.items():
            if priv == "write":
                return user
        return next(iter(acl), "system")
