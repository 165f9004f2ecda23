"""The DISCOVER client portal.

All methods are generator helpers driven with ``yield from`` inside a
simulation process — the portal is a *thin* client: every operation is an
HTTP request to the local server, and asynchronous traffic (updates,
responses, chat, lock grants) arrives only by polling (§6.2's poll-and-pull
consequence of building on HTTP).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.web import HttpClient, HttpError
from repro.wire import (
    ChatMessage,
    ControlMessage,
    ErrorMessage,
    LockMessage,
    Message,
    ResponseMessage,
    UpdateMessage,
    WhiteboardMessage,
    message_type_name,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host


#: seconds between the polls of a :meth:`AppSession.wait_lock` in the queue
LOCK_POLL_INTERVAL = 0.25


class PortalError(Exception):
    """Login/steering failures surfaced to the portal user."""

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class DiscoverPortal:
    """A user's connection to their local DISCOVER server."""

    def __init__(self, host: "Host", server_host: str,
                 tracer=None) -> None:
        self.host = host
        self.sim = host.sim
        if tracer is None:
            # Standalone portals trace nothing; deployments pass the
            # shared tracer so client spans root the cross-server trees.
            from repro.obs import SAMPLE_OFF, Tracer
            tracer = Tracer(sampling=SAMPLE_OFF, clock=lambda: self.sim.now)
        self.tracer = tracer
        self.http = HttpClient(host, server_host)
        self.server_host = server_host
        self.user: Optional[str] = None
        self.client_id: Optional[str] = None
        self.apps: List[dict] = []
        #: messages not yet claimed by a waiter, sorted by kind
        self.updates: List[UpdateMessage] = []
        self.chat_log: List[ChatMessage] = []
        self.whiteboard: List[WhiteboardMessage] = []
        self.lock_events: List[LockMessage] = []
        self.notices: List[ControlMessage] = []
        self._responses: Dict[int, Message] = {}
        #: secondary connections opened by §4.1 request redirection:
        #: server name → (HttpClient, client_id)
        self._connections: Dict[str, tuple] = {}

    # -- connection ------------------------------------------------------
    def login(self, user: str, password: str = ""):
        """Generator: authenticate; returns the visible application list."""
        try:
            body = yield from self.http.post(
                "/master/login", params={"user": user, "password": password})
        except HttpError as exc:
            raise PortalError(f"login failed: {exc.body}", exc.status)
        self.user = user
        self.client_id = body["client_id"]
        self.apps = body["apps"]
        return self.apps

    def logout(self):
        """Generator: end the session at the server."""
        if self.client_id is None:
            return
        yield from self.http.post("/master/logout",
                                  params={"client_id": self.client_id})
        self.client_id = None

    def close(self) -> None:
        """Release local resources (does not notify the server)."""
        self.http.close()
        for http, _cid in self._connections.values():
            http.close()
        self._connections.clear()

    #: maximum §4.1 redirect hops a single select may follow
    MAX_REDIRECTS = 4

    def open(self, app_id: str):
        """Generator: select an application; returns an :class:`AppSession`.

        If a server answers with a redirect (§4.1's request-redirection
        service), the portal transparently connects to the named server —
        user-ids are consistent network-wide (§6.3) — and re-selects
        there.  The chain is bounded (:attr:`MAX_REDIRECTS`) and a server
        that was already visited ends it immediately, so two servers
        bouncing a stale application id between them surface as a
        :class:`PortalError` instead of an infinite loop.
        """
        with self.tracer.span("portal.select", plane="client",
                              server=self.host.name,
                              attrs={"app_id": app_id}):
            http, client_id = self.http, self._cid()
            visited = {self.server_host}
            for _hop in range(self.MAX_REDIRECTS + 1):
                try:
                    info = yield from http.post(
                        "/master/select",
                        params={"client_id": client_id, "app_id": app_id})
                except HttpError as exc:
                    raise PortalError(f"select failed: {exc.body}",
                                      exc.status)
                if not (isinstance(info, dict) and "redirect" in info):
                    if http is self.http:
                        return AppSession(self, app_id, info)
                    return AppSession(self, app_id, info, http=http,
                                      client_id=client_id)
                target = info["redirect"]
                if target in visited:
                    raise PortalError(
                        f"redirect loop selecting {app_id!r}: "
                        f"{target!r} was already visited")
                visited.add(target)
                http, client_id = yield from self._connect_to(target)
            raise PortalError(f"select of {app_id!r} exceeded "
                              f"{self.MAX_REDIRECTS} redirects")

    def _connect_to(self, server: str):
        """Generator: (HttpClient, client_id) for a secondary server."""
        conn = self._connections.get(server)
        if conn is not None:
            return conn
        http = HttpClient(self.host, server)
        try:
            body = yield from http.post(
                "/master/login",
                params={"user": self.user or "", "password": ""})
        except HttpError as exc:
            http.close()
            raise PortalError(f"redirect login at {server} failed: "
                              f"{exc.body}", exc.status)
        conn = (http, body["client_id"])
        self._connections[server] = conn
        return conn

    def _cid(self) -> str:
        if self.client_id is None:
            raise PortalError("not logged in")
        return self.client_id

    # -- polling ------------------------------------------------------------
    def poll(self, max_items: int = 32):
        """Generator: poll every connection; returns and files new messages.

        Redirected sessions (§4.1) receive their traffic at the home
        server, so the portal drains its primary server and every
        secondary connection into one merged stream.
        """
        body = yield from self.http.get(
            "/collab/poll", {"client_id": self._cid(), "max": max_items})
        messages = list(body["messages"])
        for http, client_id in self._connections.values():
            try:
                extra = yield from http.get(
                    "/collab/poll", {"client_id": client_id,
                                     "max": max_items})
            except HttpError:
                continue  # that server is down; its stream pauses
            messages.extend(extra["messages"])
        for msg in messages:
            self._file(msg)
        return messages

    def _file(self, msg: Message) -> None:
        """Dispatch on the message's class name (the reflection idiom)."""
        kind = message_type_name(msg)
        if kind == "UpdateMessage":
            self.updates.append(msg)
        elif kind in ("ResponseMessage", "ErrorMessage"):
            self._responses[msg.request_id] = msg
        elif kind == "ChatMessage":
            self.chat_log.append(msg)
        elif kind == "WhiteboardMessage":
            self.whiteboard.append(msg)
        elif kind == "LockMessage":
            self.lock_events.append(msg)
        else:
            self.notices.append(msg)

    def take_response(self, request_id: int) -> Optional[Message]:
        """Pop an already-polled response for ``request_id``, if present."""
        return self._responses.pop(request_id, None)

    def wait_response(self, request_id: int, timeout: float = 60.0,
                      poll_interval: float = 0.25):
        """Generator: poll until the response to ``request_id`` arrives.

        Returns the :class:`ResponseMessage` (raises :class:`PortalError`
        on an :class:`ErrorMessage` or timeout).
        """
        deadline = self.sim.now + timeout
        while True:
            msg = self.take_response(request_id)
            if msg is not None:
                if message_type_name(msg) == "ErrorMessage":
                    raise PortalError(f"steering error: {msg.error}")
                return msg
            if self.sim.now >= deadline:
                raise PortalError(
                    f"no response to request {request_id} within {timeout}s")
            yield from self.poll()
            if request_id in self._responses:
                continue
            yield self.sim.timeout(poll_interval)

    def set_collaboration(self, enabled: bool):
        """Generator: enable/disable broadcast of my requests/responses."""
        yield from self.http.post(
            "/collab/mode",
            params={"client_id": self._cid(), "enabled": enabled})


class AppSession:
    """One client's steering session with one application."""

    def __init__(self, portal: DiscoverPortal, app_id: str,
                 info: dict, http: Optional[HttpClient] = None,
                 client_id: Optional[str] = None) -> None:
        self.portal = portal
        self.app_id = app_id
        self.info = info
        self.privilege = info.get("privilege")
        self.interface = info.get("interface", {})
        #: the connection this session speaks over — the portal's primary
        #: server, or the application's home server after a §4.1 redirect
        self.http = http or portal.http
        self.client_id = client_id or portal.client_id

    def _cid(self) -> str:
        if self.client_id is None:
            raise PortalError("session has no client id (not logged in)")
        return self.client_id

    # -- raw command path ----------------------------------------------------
    def command(self, command: str, args: Optional[dict] = None):
        """Generator: submit a command; returns its request id."""
        tracer = self.portal.tracer
        with tracer.span("portal.command", plane="client",
                         server=self.portal.host.name,
                         attrs={"app_id": self.app_id,
                                "command": command}) as span:
            try:
                body = yield from self.http.post(
                    "/command/submit",
                    params={"client_id": self._cid(),
                            "app_id": self.app_id,
                            "command": command, "args": args or {}})
            except HttpError as exc:
                raise PortalError(f"command rejected: {exc.body}",
                                  exc.status)
            tracer.annotate(span, request_id=body["request_id"])
            return body["request_id"]

    def steer(self, command: str, args: Optional[dict] = None,
              timeout: float = 60.0):
        """Generator: submit and wait for the response payload."""
        request_id = yield from self.command(command, args)
        msg = yield from self.portal.wait_response(request_id, timeout)
        return msg.result

    # -- typed steering helpers -------------------------------------------
    def get_param(self, name: str):
        """Generator: read a steerable parameter."""
        return (yield from self.steer("get_param", {"name": name}))

    def set_param(self, name: str, value: Any):
        """Generator: write a steerable parameter (needs WRITE + lock)."""
        return (yield from self.steer("set_param",
                                      {"name": name, "value": value}))

    def read_sensor(self, name: str):
        """Generator: sample an application sensor."""
        return (yield from self.steer("read_sensor", {"name": name}))

    def actuate(self, name: str, args: Optional[dict] = None,
                timeout: float = 60.0):
        """Generator: fire an actuator."""
        call = {"name": name}
        call.update(args or {})
        return (yield from self.steer("actuate", call, timeout))

    def app_status(self):
        """Generator: the application's own status record."""
        return (yield from self.steer("status"))

    def pause(self):
        """Generator: pause the application (needs WRITE + lock)."""
        return (yield from self.steer("pause"))

    def resume(self):
        """Generator: resume a paused application."""
        return (yield from self.steer("resume"))

    # -- locking ------------------------------------------------------------
    def acquire_lock(self):
        """Generator: request the steering lock ('granted' or 'queued')."""
        body = yield from self._lock("acquire")
        return body["result"]

    def release_lock(self):
        """Generator: release the steering lock."""
        body = yield from self._lock("release")
        return body

    def _lock(self, action: str):
        try:
            return (yield from self.http.post(
                "/command/lock",
                params={"client_id": self._cid(),
                        "app_id": self.app_id, "action": action}))
        except HttpError as exc:
            raise PortalError(f"lock {action} failed: {exc.body}",
                              exc.status)

    def lock_holder(self):
        """Generator: who currently drives the application."""
        body = yield from self.http.get("/command/lock",
                                               {"app_id": self.app_id})
        return body["holder"]

    def wait_lock(self, timeout: float = 60.0):
        """Generator: acquire, waiting in the queue if necessary."""
        outcome = yield from self.acquire_lock()
        if outcome == "granted":
            return "granted"
        deadline = self.portal.sim.now + timeout
        while self.portal.sim.now < deadline:
            yield from self.portal.poll()
            for ev in self.portal.lock_events:
                if (ev.app_id == self.app_id
                        and ev.holder == self.portal.client_id
                        and ev.action == "granted"):
                    self.portal.lock_events.remove(ev)
                    return "granted"
            yield self.portal.sim.timeout(LOCK_POLL_INTERVAL)
        raise PortalError(f"lock not granted within {timeout}s")

    # -- scheduled interactions (§2.1) ------------------------------------
    def schedule(self, command: str, args: Optional[dict] = None,
                 period: float = 1.0, count: Optional[int] = None):
        """Generator: have the server issue ``command`` every ``period``.

        Responses arrive on the ordinary poll stream.  Returns the
        schedule id (pass to :meth:`unschedule`).
        """
        params = {"client_id": self._cid(), "app_id": self.app_id,
                  "command": command, "args": args or {}, "period": period}
        if count is not None:
            params["count"] = count
        body = yield from self.http.post("/command/schedule",
                                                params=params)
        return body["schedule_id"]

    def unschedule(self, schedule_id: str):
        """Generator: cancel a periodic interaction."""
        body = yield from self.http.post(
            "/command/unschedule",
            params={"client_id": self._cid(),
                    "schedule_id": schedule_id})
        return body["stopped"]

    # -- collaboration ---------------------------------------------------------
    def join_group(self, group: str):
        """Generator: join a collaboration sub-group."""
        return (yield from self._group("join", group))

    def leave_group(self, group: str):
        """Generator: leave a collaboration sub-group."""
        return (yield from self._group("leave", group))

    def _group(self, action: str, group: str):
        body = yield from self.http.post(
            "/collab/group",
            params={"client_id": self._cid(), "app_id": self.app_id,
                    "group": group, "action": action})
        return body["members"]

    def chat(self, text: str, group: str = "all"):
        """Generator: send a chat line to the collaboration group."""
        body = yield from self.http.post(
            "/collab/chat",
            params={"client_id": self._cid(), "app_id": self.app_id,
                    "text": text, "group": group})
        return body["delivered"]

    def draw(self, shape: str, points: list, group: str = "all"):
        """Generator: share a whiteboard stroke."""
        body = yield from self.http.post(
            "/collab/whiteboard",
            params={"client_id": self._cid(), "app_id": self.app_id,
                    "shape": shape, "points": points, "group": group})
        return body["delivered"]

    def share_view(self, view: Any, group: str = "all"):
        """Generator: explicitly share a view (works with collab off)."""
        body = yield from self.http.post(
            "/collab/share",
            params={"client_id": self._cid(), "app_id": self.app_id,
                    "view": view, "group": group})
        return body["delivered"]

    # -- archival ---------------------------------------------------------------
    def replay_interactions(self, since: float = 0.0,
                            limit: Optional[int] = None):
        """Generator: my replayable interaction history (§5.2.5)."""
        params = {"client_id": self._cid(), "app_id": self.app_id,
                  "since": since}
        if limit is not None:
            params["limit"] = limit
        body = yield from self.http.get("/archive/interactions",
                                               params)
        return body["records"]

    def replay_app_log(self, since: float = 0.0,
                       limit: Optional[int] = None):
        """Generator: the application's archived history."""
        params = {"client_id": self._cid(), "app_id": self.app_id,
                  "since": since}
        if limit is not None:
            params["limit"] = limit
        body = yield from self.http.get("/archive/applog", params)
        return body["records"]

    def catchup(self, n: int = 20):
        """Generator: latecomer catch-up — recent group interactions."""
        body = yield from self.http.get(
            "/archive/catchup",
            {"client_id": self._cid(), "app_id": self.app_id,
             "n": n})
        return body["records"]
