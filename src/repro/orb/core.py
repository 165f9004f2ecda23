"""The ORB: invocation engine and request dispatcher.

One :class:`Orb` per participating host.  It binds a handler port that
demultiplexes each :class:`GiopRequest` / :class:`GiopReply` frame as it
arrives, and offers :meth:`invoke` — a generator helper callers drive with
``yield from`` inside their own simulation processes::

    result = yield from orb.invoke(ref, "get_status")

Cost accounting (§6.2): the *caller* pays a marshalling delay proportional
to the request size; the *server host CPU* is occupied for the CORBA
dispatch cost of the request, so concurrent invocations queue like they
would on a real ORB's thread pool.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.net.costs import CostModel
from repro.orb.adapter import ObjectAdapter
from repro.orb.errors import (
    BadOperation,
    CommFailure,
    ObjectNotFound,
    OrbError,
    RemoteException,
)
from repro.orb.giop import STATUS_OK, STATUS_SYSTEM_EXC, GiopReply, GiopRequest
from repro.orb.reference import ObjectRef
from repro.pipeline.core import PLANE_ORB, Pipeline, RequestContext
from repro.sim import AnyOf
from repro.wire import freeze_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: the conventional ORB listener port (IIOP's 683)
DEFAULT_ORB_PORT = 683

_system_exceptions = {
    "ObjectNotFound": ObjectNotFound,
    "BadOperation": BadOperation,
    "CommFailure": CommFailure,
}


class Orb:
    """An object request broker attached to one simulated host."""

    def __init__(self, host: "Host", port: int = DEFAULT_ORB_PORT,
                 cost_model: Optional[CostModel] = None,
                 pipeline: Optional[Pipeline] = None,
                 tracer=None) -> None:
        self.host = host
        self.sim = host.sim
        self.port = port
        self.costs = cost_model or CostModel()
        self.endpoint = host.bind(port, self._receive)
        self.adapter = ObjectAdapter(host.name, port)
        self._pending: Dict[int, Any] = {}
        self._req_seq = itertools.count(1)
        if tracer is None:
            # Bare ORBs trace nothing; a disabled tracer keeps the
            # invoke/serve paths free of None checks.
            from repro.obs import SAMPLE_OFF, Tracer
            tracer = Tracer(sampling=SAMPLE_OFF, clock=lambda: self.sim.now)
        self.tracer = tracer
        if pipeline is None:
            # Late import: repro.pipeline.interceptors imports the core
            # managers, which import this module.
            from repro.pipeline.interceptors import default_pipeline
            pipeline = default_pipeline(clock=lambda: self.sim.now,
                                        tracer=tracer, server=host.name)
        #: interceptor chain every incoming request (two-way *and* oneway)
        #: dispatches through — §6.3 admission plugs in here
        self.pipeline = pipeline

    # -- lifecycle -----------------------------------------------------------
    def shutdown(self) -> None:
        """Stop dispatching: release the port, so a later frame is
        dropped."""
        self.endpoint.close()

    # -- servant side ----------------------------------------------------------
    def activate(self, servant: Any, key: Optional[str] = None,
                 type_id: str = "") -> ObjectRef:
        """Expose ``servant`` through this ORB; returns its reference."""
        return self.adapter.activate(servant, key, type_id)

    def deactivate(self, key: str) -> None:
        """Withdraw a servant."""
        self.adapter.deactivate(key)

    # -- client side -------------------------------------------------------------
    def invoke(self, ref: ObjectRef, operation: str, *args: Any,
               timeout: Optional[float] = None, **kwargs: Any):
        """Generator helper: invoke ``operation`` on the remote ``ref``.

        Use as ``result = yield from orb.invoke(ref, "op", ...)``.  Raises
        the mapped system exception, or :class:`RemoteException` for errors
        raised inside the servant.  ``timeout`` (virtual seconds) turns a
        missing reply into :class:`CommFailure`.
        """
        req_id = next(self._req_seq)
        req = GiopRequest(req_id, ref.object_key, operation,
                          tuple(args), dict(kwargs),
                          reply_host=self.host.name, reply_port=self.port)
        with self.tracer.span(f"giop.{operation}", plane="orb-client",
                              server=self.host.name,
                              attrs={"object_key": ref.object_key,
                                     "target": ref.host}) as span:
            ctx = self.tracer.context_of(span)
            req.service_context = ctx
            # Client-side stub marshalling delay.  freeze_size memoizes the
            # request's wire size, so the network send below reuses it.
            marshal = self.costs.corba_per_byte * freeze_size(req)
            if marshal > 0:
                yield self.sim.timeout(marshal)
            waiter = self.sim.event()
            self._pending[req_id] = waiter
            self.endpoint.send(ref.host, ref.port, req, channel="corba",
                               trace_ctx=ctx)
            try:
                if timeout is None:
                    reply = yield waiter
                else:
                    expiry = self.sim.timeout(timeout)
                    fired = yield AnyOf(self.sim, [waiter, expiry])
                    if waiter not in fired:
                        raise CommFailure(
                            f"invoke {ref.object_key}.{operation} timed out "
                            f"after {timeout}s")
                    reply = fired[waiter]
            finally:
                self._pending.pop(req_id, None)
            return self._unpack_reply(ref, operation, reply)

    def invoke_oneway(self, ref: ObjectRef, operation: str, *args: Any,
                      **kwargs: Any) -> None:
        """Fire-and-forget invocation (no reply, no exceptions back)."""
        req = GiopRequest(next(self._req_seq), ref.object_key, operation,
                          tuple(args), dict(kwargs), oneway=True)
        with self.tracer.span(f"giop.{operation}", plane="orb-client",
                              server=self.host.name,
                              attrs={"object_key": ref.object_key,
                                     "target": ref.host,
                                     "oneway": True}) as span:
            ctx = self.tracer.context_of(span)
            req.service_context = ctx
            self.endpoint.send(ref.host, ref.port, req, channel="corba",
                               trace_ctx=ctx)

    @staticmethod
    def _unpack_reply(ref: ObjectRef, operation: str, reply: GiopReply) -> Any:
        if reply.status == STATUS_OK:
            return reply.result
        if reply.status == STATUS_SYSTEM_EXC:
            exc_cls = _system_exceptions.get(reply.exc_type, OrbError)
            raise exc_cls(f"{ref.object_key}.{operation}: {reply.exc_message}")
        raise RemoteException(reply.exc_type, reply.exc_message)

    # -- dispatcher ------------------------------------------------------------
    def _receive(self, frame) -> None:
        # the port's handler
        payload = frame.payload
        if isinstance(payload, GiopReply):
            waiter = self._pending.get(payload.request_id)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(payload)
            # Late replies (after timeout) are dropped silently.
        elif isinstance(payload, GiopRequest):
            self.sim.spawn(
                self._serve(payload, frame.size, frame.src_host),
                name=f"serve-{payload.object_key}.{payload.operation}")
        # Anything else on the ORB port is ignored (port scan etc.)

    def _serve(self, req: GiopRequest, size: int, src_host: str = ""):
        # Server-side dispatch occupies the host CPU.
        cpu_cost = self.costs.corba_cost(size)
        yield from self.host.use_cpu(cpu_cost)
        ctx = RequestContext(
            PLANE_ORB, request_id=req.request_id, principal=src_host,
            operation=req.operation, size=size, request=req,
            # Decoded requests lack the slot entirely — not a wire field.
            trace_parent=getattr(req, "service_context", None),
            cpu_cost=cpu_cost)
        result = yield from self.pipeline.execute(ctx,
                                                  self._dispatch_servant)
        if req.oneway:
            return
        if ctx.error_type is not None:
            reply = ctx.response  # GiopReply built by the error envelope
        else:
            reply = GiopReply(req.request_id, STATUS_OK, result, "", "")
        self.endpoint.send(req.reply_host, req.reply_port, reply,
                           channel="corba",
                           trace_ctx=ctx.trace_ctx)

    def _dispatch_servant(self, ctx: RequestContext):
        """Pipeline handler: look the servant up and run the operation.

        Returns the operation's outcome (the pipeline drives generator
        operations); every failure propagates to the chain, where the
        error envelope maps it to a CORBA system or user exception."""
        req: GiopRequest = ctx.request
        servant = self.adapter.servant(req.object_key)
        op = getattr(servant, req.operation, None)
        if op is None or req.operation.startswith("_") or not callable(op):
            raise BadOperation(
                f"{type(servant).__name__} has no operation "
                f"{req.operation!r}")
        return op(*req.args, **req.kwargs)
