"""Portable-interceptor pipeline: the one dispatch seam for every plane.

DISCOVER's middleware serves requests on three distinct planes — HTTP
servlet dispatch (:mod:`repro.web.container`), CORBA/ORB invocation
(:mod:`repro.orb.core`), and the application channel handled by the daemon
(:mod:`repro.core.daemon`).  The paper's cross-cutting concerns — two-level
security (§5.2.2), per-metric access policies (§6.3), archival and
monitoring (§5.2.5) — apply to *all* of them, which is exactly the problem
CORBA portable interceptors solved for real ORBs.  This module is the
plane-neutral version: a :class:`RequestContext` describing one request, an
:class:`Interceptor` with ``before`` / ``after`` / ``on_error`` hooks, and
a :class:`Pipeline` that composes interceptors deterministically around a
handler.

Contract (deterministic, allocation-light, zero virtual-time cost):

- ``before`` hooks run in chain order.  A ``before`` that raises
  short-circuits the chain: later ``before`` hooks and the handler are
  skipped.  A ``before`` that sets ``ctx.response`` short-circuits
  successfully (the seam future caching/rate-limit interceptors use).
- The handler runs next; it may return a value or a generator (a
  simulation process), which the pipeline drives with ``yield from``.
- A raising ``before`` or handler sets ``ctx.error`` and
  ``ctx.error_type`` (the exception's class name).
- Unwinding visits the interceptors whose ``before`` completed, in
  *reverse* order: ``on_error`` while ``ctx.error`` is set, ``after``
  otherwise.  An ``on_error`` may absorb the failure by clearing
  ``ctx.error`` and setting ``ctx.response`` (see
  :class:`~repro.pipeline.interceptors.ErrorEnvelopeInterceptor`);
  interceptors further out then see a completed request whose
  ``ctx.error_type`` still names the failure.
- If no interceptor absorbed the error, :meth:`Pipeline.execute` re-raises
  it at the caller.

Interceptor hooks are plain calls — they never yield, so threading a chain
through a dispatch path adds no simulation events and cannot perturb
virtual-time schedules (the experiment tables are bit-for-bit identical
with or without an empty chain).
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Iterable, Optional

#: plane names carried by :attr:`RequestContext.plane`
PLANE_HTTP = "http"
PLANE_ORB = "orb"
PLANE_CHANNEL = "channel"

PLANES = (PLANE_HTTP, PLANE_ORB, PLANE_CHANNEL)


class RequestContext:
    """One request, from dispatch to completion: the record every store
    is written from.

    One context is created per dispatched request on any plane.  The
    dispatch site fills in what it knows before the chain runs:

    - identity — ``plane`` + ``request_id``; the caller (``principal`` —
      the source host, matching §6.3's per-server accounting); the
      requested ``operation`` (servlet path, ORB operation, or channel
      message type); the wire ``size`` in bytes; the raw ``request``;
    - ``trace_parent`` — the trace context the request arrived with
      (frame metadata / GIOP service context), or None;
    - ``cpu_cost`` — the modeled CPU seconds the site charged the host
      before entering the chain.

    The pipeline stamps ``started_at`` / ``finished_at``, and sets
    ``error`` and ``error_type`` (the exception's class name) when a hook
    or the handler raises.  An absorbing ``on_error`` clears ``error``;
    ``error_type`` stays, so "did this request fail" has one answer
    everywhere: ``ctx.error_type is not None``.

    The recording interceptor (:mod:`repro.obs.interceptor`) fills
    ``trace_ctx`` — this request's own span context, which the dispatch
    site stamps on the reply — and keeps its open span, scope token
    and ledger window in ``span`` / ``span_token`` / ``cost_open`` until
    completion.
    """

    __slots__ = ("plane", "request_id", "principal", "operation", "size",
                 "request", "trace_parent", "cpu_cost", "response", "error",
                 "error_type", "started_at", "finished_at", "trace_ctx",
                 "span", "span_token", "cost_open")

    def __init__(self, plane: str, request_id: int = 0, principal: str = "",
                 operation: str = "", size: int = 0, request: Any = None,
                 trace_parent: Any = None, cpu_cost: float = 0.0) -> None:
        self.plane = plane
        self.request_id = request_id
        self.principal = principal
        self.operation = operation
        self.size = size
        self.request = request
        self.trace_parent = trace_parent
        self.cpu_cost = cpu_cost
        self.response: Any = None
        self.error: Optional[BaseException] = None
        self.error_type: Optional[str] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.trace_ctx: Any = None
        self.span: Any = None
        self.span_token: Any = None
        self.cost_open: Optional[tuple] = None

    @property
    def elapsed(self) -> Optional[float]:
        """Virtual seconds spent in the pipeline (None without a clock)."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "error" if self.error is not None else "ok"
        return (f"<RequestContext {self.plane}-{self.request_id} "
                f"{self.operation!r} "
                f"from {self.principal!r} [{state}]>")


class Interceptor:
    """Base interceptor: all three hooks default to no-ops.

    Subclasses override any subset.  Hooks must be plain (non-generator)
    callables — they run inline on the dispatch path and may not consume
    virtual time.
    """

    #: short name used in reprs and metrics labels
    name = "interceptor"

    def before(self, ctx: RequestContext) -> None:
        """Runs before the handler; raise to reject the request."""

    def after(self, ctx: RequestContext) -> None:
        """Runs after a successful handler (or an absorbed error)."""

    def on_error(self, ctx: RequestContext) -> None:
        """Runs while ``ctx.error`` is set; may absorb it (see module doc)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class Pipeline:
    """A deterministic interceptor chain around a request handler."""

    __slots__ = ("interceptors", "clock")

    def __init__(self, interceptors: Iterable[Interceptor] = (),
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.interceptors = tuple(interceptors)
        #: zero-arg callable returning the current (virtual) time; used to
        #: stamp ``started_at`` / ``finished_at`` on every context
        self.clock = clock

    def execute(self, ctx: RequestContext,
                handler: Callable[[RequestContext], Any]):
        """Generator: drive ``handler(ctx)`` through the chain.

        Use as ``result = yield from pipeline.execute(ctx, handler)`` inside
        a simulation process.  Returns ``ctx.response``; re-raises
        ``ctx.error`` if no interceptor absorbed it.
        """
        if self.clock is not None:
            ctx.started_at = self.clock()
        entered = []
        for interceptor in self.interceptors:
            try:
                interceptor.before(ctx)
            except Exception as exc:  # noqa: BLE001 - rejection short-circuit
                ctx.error, ctx.error_type = exc, type(exc).__name__
                break
            entered.append(interceptor)
            if ctx.response is not None:
                break  # successful short-circuit (e.g. a cache hit)
        if ctx.error is None and ctx.response is None:
            try:
                outcome = handler(ctx)
                if isinstance(outcome, GeneratorType):
                    outcome = yield from outcome
                ctx.response = outcome
            except Exception as exc:  # noqa: BLE001 - envelope decides
                ctx.error, ctx.error_type = exc, type(exc).__name__
        if self.clock is not None:
            ctx.finished_at = self.clock()
        for interceptor in reversed(entered):
            if ctx.error is not None:
                interceptor.on_error(ctx)
            else:
                interceptor.after(ctx)
        if ctx.error is not None:
            raise ctx.error
        return ctx.response

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(i.name for i in self.interceptors)
        return f"<Pipeline [{names}]>"
