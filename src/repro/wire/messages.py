"""Typed messages exchanged between DISCOVER tiers.

The paper (§4.1): "All requests and responses are Java objects ... Clients
differentiate between the different messages (i.e. Response, Error or
Update) using Java's reflection mechanism, by querying the received object
for its class name."  We keep that dispatch-by-class-name discipline:
:func:`message_type_name` is what every receiver switches on.

All messages share an envelope (sender, destination, ids, channel name) and
are registered with the wire codec so their byte size on the simulated
network is the size of their actual encoded content.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.wire.serialize import register_codec


class Message:
    """Envelope common to every DISCOVER message.

    Attributes
    ----------
    msg_id:
        Unique id, for request/response correlation and archival: the
        sender's simulation's next ``"msg"`` id, drawn by whoever builds
        the message (every constructor takes it as the ``msg_id``
        keyword).
    sender / destination:
        Endpoint names (host or logical endpoint id).
    channel:
        Which of the paper's channels this travels on: ``"main"``,
        ``"command"``, ``"response"``, or ``"control"``.
    app_id / client_id:
        Optional ids tying the message to an application or client session.
    """

    def __init__(self, *, msg_id: int, sender: str = "",
                 destination: str = "", channel: str = "main",
                 app_id: Optional[str] = None,
                 client_id: Optional[str] = None) -> None:
        self.msg_id = msg_id
        self.sender = sender
        self.destination = destination
        self.channel = channel
        self.app_id = app_id
        self.client_id = client_id

    def type_name(self) -> str:
        """The class name receivers dispatch on (paper's reflection)."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<{self.type_name()} #{self.msg_id} "
                f"{self.sender}->{self.destination} ch={self.channel}>")

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.msg_id))


@register_codec
class RegisterMessage(Message):
    """Application → server: register on the MainChannel (paper §4.1).

    Carries the pre-assigned application identifier used for authentication,
    the steerable-interface description, and the per-user ACL the
    application supplies ("it supplies the server with ... a list of
    authorized user-IDs and their privileges", §6.3).
    """

    def __init__(self, app_name: str, auth_token: str, interface: dict,
                 acl: Dict[str, str], **kw: Any) -> None:
        super().__init__(channel="main", **kw)
        self.app_name = app_name
        self.auth_token = auth_token
        self.interface = interface
        self.acl = acl


@register_codec
class UpdateMessage(Message):
    """Application → server → clients: periodic state update (MainChannel)."""

    def __init__(self, payload: Any = None, seq: int = 0,
                 timestamp: float = 0.0, **kw: Any) -> None:
        super().__init__(channel="main", **kw)
        self.payload = payload
        self.seq = seq
        self.timestamp = timestamp


@register_codec
class CommandMessage(Message):
    """Client → server → application: view/steer request (CommandChannel)."""

    def __init__(self, command: str, args: Optional[dict] = None,
                 request_id: Optional[int] = None, **kw: Any) -> None:
        super().__init__(channel="command", **kw)
        self.command = command
        self.args = args or {}
        self.request_id = request_id if request_id is not None else self.msg_id


@register_codec
class ResponseMessage(Message):
    """Application → server → client: reply to a command (ResponseChannel)."""

    def __init__(self, request_id: int, result: Any = None, **kw: Any) -> None:
        super().__init__(channel="response", **kw)
        self.request_id = request_id
        self.result = result


@register_codec
class ErrorMessage(Message):
    """Failure notice delivered instead of a response (ResponseChannel)."""

    def __init__(self, request_id: int, error: str, code: str = "ERROR",
                 **kw: Any) -> None:
        super().__init__(channel="response", **kw)
        self.request_id = request_id
        self.error = error
        self.code = code


@register_codec
class ControlMessage(Message):
    """Server ↔ server system events and errors (ControlChannel, §5.1).

    "For interaction between two servers, an additional Control Channel is
    used to forward error messages and system events ... a notification
    service similar to the one used in Salamander."
    """

    def __init__(self, event: str, detail: Any = None, **kw: Any) -> None:
        super().__init__(channel="control", **kw)
        self.event = event
        self.detail = detail


@register_codec
class AckMessage(Message):
    """Generic acknowledgement (registration accepted, lock released...)."""

    def __init__(self, request_id: int, ok: bool = True, info: str = "",
                 **kw: Any) -> None:
        super().__init__(channel="response", **kw)
        self.request_id = request_id
        self.ok = ok
        self.info = info


@register_codec
class LockMessage(Message):
    """Steering-lock protocol message (§5.2.4): acquire/release/grant/deny."""

    def __init__(self, action: str, holder: Optional[str] = None,
                 **kw: Any) -> None:
        super().__init__(channel="command", **kw)
        self.action = action
        self.holder = holder


@register_codec
class ChatMessage(Message):
    """Collaboration chat line (§4.1: "chat and whiteboard tools")."""

    def __init__(self, author: str, text: str, **kw: Any) -> None:
        super().__init__(channel="main", **kw)
        self.author = author
        self.text = text


@register_codec
class WhiteboardMessage(Message):
    """A whiteboard stroke/shape shared with the collaboration group."""

    def __init__(self, author: str, shape: str, points: list, **kw: Any) -> None:
        super().__init__(channel="main", **kw)
        self.author = author
        self.shape = shape
        self.points = points


def message_type_name(msg: Message) -> str:
    """Dispatch key for a received message — the paper's reflection idiom."""
    if not isinstance(msg, Message):
        raise TypeError(f"not a Message: {msg!r}")
    return msg.type_name()
