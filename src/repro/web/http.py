"""HTTP request/response model (the subset the collaboratory needs)."""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.wire.serialize import register_codec

GET = "GET"
POST = "POST"

OK = 200
BAD_REQUEST = 400
UNAUTHORIZED = 401
FORBIDDEN = 403
NOT_FOUND = 404
CONFLICT = 409
SERVER_ERROR = 500

_status_text = {
    OK: "OK",
    BAD_REQUEST: "Bad Request",
    UNAUTHORIZED: "Unauthorized",
    FORBIDDEN: "Forbidden",
    NOT_FOUND: "Not Found",
    CONFLICT: "Conflict",
    SERVER_ERROR: "Internal Server Error",
}


@register_codec
class HttpRequest:
    """A GET or POST to a servlet path.

    ``params`` carries query/form parameters; ``body`` carries a serialized
    object for POSTs (the paper moves Java objects in POST bodies).  The
    ``cookie`` holds the session id once the server has issued one.
    ``request_id`` is the sender's simulation's next ``"http_request"``
    id; the response echoes it.
    """

    def __init__(self, request_id: int, method: str, path: str,
                 params: Optional[Dict[str, Any]] = None, body: Any = None,
                 cookie: str = "") -> None:
        if method not in (GET, POST):
            raise ValueError(f"unsupported method {method!r}")
        self.request_id = request_id
        self.method = method
        self.path = path
        self.params = params or {}
        self.body = body
        self.cookie = cookie

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HttpRequest #{self.request_id} {self.method} {self.path}>"


@register_codec
class HttpResponse:
    """The reply to one request; correlated by ``request_id``."""

    def __init__(self, request_id: int, status: int = OK, body: Any = None,
                 set_cookie: str = "") -> None:
        self.request_id = request_id
        self.status = status
        self.body = body
        self.set_cookie = set_cookie

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def reason(self) -> str:
        """Human-readable status text."""
        return _status_text.get(self.status, str(self.status))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<HttpResponse #{self.request_id} {self.status} "
                f"{self.reason}>")
