"""The servlet container: a web server on a simulated host.

Request lifecycle per the paper's commodity web-server tier: accept →
(create or resolve session) → charge the host CPU the HTTP service cost →
run the request pipeline (error envelope / recording / security / admission
interceptors around longest-prefix servlet routing) → reply to the
caller's endpoint.  Concurrent requests queue on the host CPU, which is
what saturates a server past ~20 polling clients (experiment E2).

Cross-cutting concerns live in :mod:`repro.pipeline` — this module only
routes; it must not import ``repro.core.security`` or
``repro.core.policies`` (CI enforces the boundary).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.net.costs import CostModel
from repro.pipeline.core import PLANE_HTTP, Pipeline, RequestContext
from repro.web.http import NOT_FOUND, HttpRequest
from repro.web.servlet import Servlet
from repro.web.session import HttpSession, SessionManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: conventional HTTP port
DEFAULT_HTTP_PORT = 80

#: request paths whose servlet a container remembers; the portals name a
#: few dozen, so only a caller inventing paths ever fills it
ROUTE_CACHE_SIZE = 1024


class ServletContainer:
    """A web server hosting mounted servlets."""

    def __init__(self, host: "Host", port: int = DEFAULT_HTTP_PORT,
                 cost_model: Optional[CostModel] = None,
                 session_timeout: float = 1800.0,
                 pipeline: Optional[Pipeline] = None,
                 on_session_expired:
                 Optional[Callable[[HttpSession], None]] = None) -> None:
        self.host = host
        self.sim = host.sim
        self.port = port
        self.costs = cost_model or CostModel()
        self.endpoint = host.bind(port, self._accept)
        # on_session_expired is told each session that timed out, so its
        # owner can end whatever the session stood for (a DISCOVER server
        # logs the client out)
        self.sessions = SessionManager(timeout=session_timeout,
                                       on_expire=on_session_expired)
        if pipeline is None:
            # Late import: repro.pipeline.interceptors imports the core
            # managers, which import this module.
            from repro.pipeline.interceptors import default_pipeline
            pipeline = default_pipeline(clock=lambda: self.sim.now)
        #: interceptor chain every request dispatches through
        self.pipeline = pipeline
        self._servlets: Dict[str, Servlet] = {}
        # request path -> its longest-prefix servlet; mount() clears it
        self._routes: Dict[str, Optional[Servlet]] = {}
        self._last_sweep = self.sim.now

    # -- configuration ---------------------------------------------------
    def mount(self, path: str, servlet: Servlet) -> Servlet:
        """Mount ``servlet`` at ``path`` (longest-prefix routing)."""
        if not path.startswith("/"):
            raise ValueError("mount path must start with '/'")
        if path in self._servlets:
            raise ValueError(f"path {path!r} already mounted")
        servlet.mount_path = path
        self._servlets[path] = servlet
        self._routes.clear()
        servlet.init(self)
        return servlet

    def servlet_for(self, path: str) -> Optional[Servlet]:
        """Longest-prefix match over mounted servlets, resolved once per
        path (at most :data:`ROUTE_CACHE_SIZE` paths are remembered)."""
        try:
            return self._routes[path]
        except KeyError:
            pass
        best = None
        best_len = -1
        for prefix, servlet in self._servlets.items():
            if path == prefix or path.startswith(prefix.rstrip("/") + "/"):
                if len(prefix) > best_len:
                    best, best_len = servlet, len(prefix)
        if len(self._routes) >= ROUTE_CACHE_SIZE:
            self._routes.clear()  # a caller naming ever new paths
        self._routes[path] = best
        return best

    def stop(self) -> None:
        """Shut the container down: release the port, so a later request
        is dropped unanswered."""
        self.endpoint.close()

    # -- request handling ---------------------------------------------------
    def _accept(self, frame) -> None:
        # the port's handler: a request starts its process on arrival
        if isinstance(frame.payload, HttpRequest):
            self.sim.spawn(self._handle(frame),
                           name=f"req-{frame.payload.request_id}")

    def _sweep_sessions(self) -> None:
        """Amortized expiry: sweep stale sessions at most every quarter
        timeout, piggybacked on request handling (keeps the event loop
        free of perpetual timers so ``sim.run()`` still terminates)."""
        if self.sim.now - self._last_sweep >= self.sessions.timeout / 4.0:
            self._last_sweep = self.sim.now
            self.sessions.expire_stale(self.sim.now)

    @property
    def sessions_expired(self) -> int:
        """Sessions that timed out: reaped by the sweep, or found stale
        when their own cookie came back."""
        return self.sessions.expired

    def _handle(self, frame):
        self._sweep_sessions()
        request: HttpRequest = frame.payload
        session = self.sessions.resolve(request.cookie, self.sim.now)
        new_session = session is None
        if new_session:
            session = self.sessions.create(
                self.sim.now, f"JSESSIONID-{self.sim.next_id('session')}")
        # Accept + servlet-engine dispatch cost on this host's CPU.
        cpu_cost = self.costs.http_cost(frame.size, new_session=new_session)
        yield from self.host.use_cpu(cpu_cost)
        ctx = RequestContext(PLANE_HTTP, request_id=request.request_id,
                             principal=frame.src_host,
                             operation=request.path, size=frame.size,
                             request=request, trace_parent=frame.trace_ctx,
                             cpu_cost=cpu_cost)

        def route(_ctx):
            servlet = self.servlet_for(request.path)
            if servlet is None:
                return (NOT_FOUND,
                        {"error": f"no servlet at {request.path}"})
            return servlet.service(request, session)

        result = yield from self.pipeline.execute(ctx, route)
        response = Servlet.normalize(request, result)
        if new_session:
            response.set_cookie = session.session_id
        self.endpoint.send(frame.src_host, frame.src_port, response,
                           channel="response",
                           trace_ctx=ctx.trace_ctx)
