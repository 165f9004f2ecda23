"""The browser stand-in: an HTTP client with cookie persistence."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.web.http import GET, POST, HttpRequest, HttpResponse

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


class HttpError(Exception):
    """A non-2xx response surfaced as an exception."""

    def __init__(self, status: int, body: Any = None) -> None:
        super().__init__(f"HTTP {status}: {body!r}")
        self.status = status
        self.body = body


class HttpClient:
    """Issues requests to one server and remembers its session cookie.

    All request methods are generator helpers driven with ``yield from``
    inside a simulation process, mirroring the blocking XHR of the paper's
    browser portal::

        body = yield from client.get("/master/login", {"user": "alice"})
    """

    def __init__(self, host: "Host", server_host: str,
                 server_port: int = 80) -> None:
        self.host = host
        self.sim = host.sim
        self.server_host = server_host
        self.server_port = server_port
        self.endpoint = host.bind(self.sim.next_id("client_port", 40000),
                                  self._receive)
        self.cookie = ""
        self._pending: Dict[int, Any] = {}

    def close(self) -> None:
        """Release the port: a later response is dropped."""
        self.endpoint.close()

    def _receive(self, frame) -> None:
        # the port's handler: a response wakes the request waiting on it
        resp = frame.payload
        if isinstance(resp, HttpResponse):
            waiter = self._pending.pop(resp.request_id, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(resp)

    # -- request helpers -------------------------------------------------
    def request(self, method: str, path: str,
                params: Optional[dict] = None, body: Any = None):
        """Generator: send one request, return the response body.

        Raises :class:`HttpError` on non-2xx status.
        """
        req = HttpRequest(self.sim.next_id("http_request"), method, path,
                          params, body, cookie=self.cookie)
        waiter = self.sim.event()
        self._pending[req.request_id] = waiter
        self.endpoint.send(self.server_host, self.server_port, req,
                           channel="command" if method == POST else "main")
        resp = yield waiter
        if resp.set_cookie:
            self.cookie = resp.set_cookie
        if not resp.ok:
            raise HttpError(resp.status, resp.body)
        return resp.body

    def get(self, path: str, params: Optional[dict] = None):
        """Generator: HTTP GET."""
        return (yield from self.request(GET, path, params))

    def post(self, path: str, body: Any = None,
             params: Optional[dict] = None):
        """Generator: HTTP POST."""
        return (yield from self.request(POST, path, params, body))
