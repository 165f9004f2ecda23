"""The ORB's wire protocol (GIOP, abridged).

Two message types with request-id correlation.  Replies carry one of three
status codes, mirroring GIOP's NO_EXCEPTION / USER_EXCEPTION /
SYSTEM_EXCEPTION trichotomy.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.wire.serialize import register_codec

STATUS_OK = "ok"
STATUS_USER_EXC = "user_exception"
STATUS_SYSTEM_EXC = "system_exception"

# Wire field order of the two message types.  GIOP messages are the per-call
# hot path, so the classes use __slots__; registering the names in this order
# replicates exactly what the default ``vars(obj)`` codec produced before,
# keeping the encoding byte-for-byte identical.
_REQUEST_FIELDS = ("request_id", "object_key", "operation", "args", "kwargs",
                   "reply_host", "reply_port", "oneway")
_REPLY_FIELDS = ("request_id", "status", "result", "exc_type", "exc_message")


class GiopRequest:
    """One remote invocation: target object key, operation, arguments.

    ``service_context`` mirrors GIOP's service-context list, carrying the
    caller's trace context.  It is a slot but deliberately *not* a wire
    field (absent from ``_REQUEST_FIELDS``), so encoded size — and every
    golden experiment table — is identical with tracing on or off; decoded
    instances simply lack the attribute (read with ``getattr``).
    """

    __slots__ = _REQUEST_FIELDS + ("service_context", "__weakref__")

    def __init__(self, request_id: int, object_key: str, operation: str,
                 args: tuple = (), kwargs: Optional[dict] = None,
                 reply_host: str = "", reply_port: int = 0,
                 oneway: bool = False, service_context: Any = None) -> None:
        self.request_id = request_id
        self.object_key = object_key
        self.operation = operation
        self.args = args
        self.kwargs = kwargs if kwargs is not None else {}
        self.reply_host = reply_host
        self.reply_port = reply_port
        self.oneway = oneway
        self.service_context = service_context

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<GiopRequest #{self.request_id} "
                f"{self.object_key}.{self.operation}>")


class GiopReply:
    """The reply to a request: status + result (or error description)."""

    __slots__ = _REPLY_FIELDS + ("__weakref__",)

    def __init__(self, request_id: int, status: str = STATUS_OK,
                 result: Any = None, exc_type: str = "",
                 exc_message: str = "") -> None:
        self.request_id = request_id
        self.status = status
        self.result = result
        self.exc_type = exc_type
        self.exc_message = exc_message

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GiopReply #{self.request_id} {self.status}>"


register_codec(GiopRequest, fields=_REQUEST_FIELDS)
register_codec(GiopReply, fields=_REPLY_FIELDS)
