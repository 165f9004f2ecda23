"""RecordingInterceptor: the one place a completed request is written down.

Joins the standard chain on all three planes (envelope → **recording** →
security → admission).  It sits directly inside the error envelope, so
its ``on_error`` sees the raw exception before the envelope absorbs it
into a reply shape, and ahead of security/admission, so a rejected or
shed request is still traced, metered and charged to its principal — you
cannot meter principals you refuse to see.

The :class:`~repro.pipeline.core.RequestContext` is the completion
record; each store is written from it once:

- ``before`` is one call into each plane.  ``Tracer.enter`` opens one
  span named after the plane's operation (servlet path, ORB operation,
  channel message type), parented on ``ctx.trace_parent``, and makes it
  the handling process's current span so everything the handler does —
  nested peer calls, frames it sends — joins the same trace.  Then
  ``open_request`` opens the ledger window.  Span first: minting it is
  charged to whatever scope encloses the request, not to the request
  itself.
- Completion (``after`` and ``on_error`` alike — ``ctx.error_type`` says
  which) is one call into each again: ``close_request`` books the
  request with one entry update, ``Tracer.finish`` closes the span's
  scope and retains it; then one :meth:`PipelineMetrics.observe` with the
  span id as the latency bucket's exemplar.

Each sink is optional: a bare ORB has only a tracer, a directory shard
only a ledger, a :class:`~repro.core.server.DiscoverServer` all three.
"""

from __future__ import annotations

from repro.pipeline.core import Interceptor, RequestContext


class RecordingInterceptor(Interceptor):
    """One span, one ledger update and one metrics observation per
    dispatched request, on every plane."""

    name = "recording"

    def __init__(self, *, metrics=None, tracer=None, server: str = "",
                 ledger=None) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.server = server
        self.ledger = ledger

    def before(self, ctx: RequestContext) -> None:
        if self.tracer is not None:
            token = self.tracer.enter(
                ctx.operation or ctx.plane, plane=ctx.plane,
                server=self.server, parent=ctx.trace_parent,
                attrs={"request_id": ctx.request_id,
                       "principal": ctx.principal,
                       "bytes": ctx.size})
            if token is not None:
                ctx.span_token = token
                ctx.span = span = token[0]
                ctx.trace_ctx = span.context()
        if self.ledger is not None:
            self.ledger.open_request(ctx)

    def after(self, ctx: RequestContext) -> None:
        if self.ledger is not None:
            self.ledger.close_request(ctx)
        span = ctx.span
        if span is not None:
            self.tracer.finish(span, error=ctx.error, token=ctx.span_token)
        if self.metrics is not None:
            self.metrics.observe(ctx.plane, latency=ctx.elapsed,
                                 error_type=ctx.error_type,
                                 exemplar=(span.span_id if span is not None
                                           else None))

    on_error = after
