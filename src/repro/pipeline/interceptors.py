"""The standard cross-cutting interceptors shared by all three planes.

Each class wraps code that previously lived inline in one dispatch path:

- :class:`SecurityInterceptor` — first-level authentication at the
  dispatch boundary (the daemon's pre-assigned application token check,
  §4.1) and the seam for per-plane ACL enforcement (§5.2.2).
- :class:`AdmissionInterceptor` — §6.3 resource policies: per-principal
  token buckets (requests/s, bytes/s), formerly the ORB-only
  ``admission`` attribute.  It keeps no book: a principal's requests,
  bytes and rejections are the recording step's (below).
- :class:`ErrorEnvelopeInterceptor` — one error envelope per plane,
  absorbing the per-servlet ``_error`` helpers and the ad-hoc try/except
  blocks the planes used to carry.

Recording — the request's span, its ledger entry and its
:class:`repro.metrics.PipelineMetrics` observation — is one more
interceptor, :class:`repro.obs.RecordingInterceptor`, which
:func:`default_pipeline` places between the envelope and security.

Dispatch modules (``repro.web.container``, ``repro.orb.core``,
``repro.core.daemon``) must not import ``repro.core.security`` or
``repro.core.policies`` directly — policy and auth code reaches a plane
only through this module (enforced by ``tools/check_pipeline_boundary.py``
in CI).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.collaboration import CollaborationError
from repro.core.locking import LockError
from repro.core.policies import PolicyManager
from repro.core.security import SecurityError, SecurityManager
from repro.metrics import PipelineMetrics
from repro.orb.errors import BadOperation, CommFailure, ObjectNotFound, OrbError
from repro.orb.giop import STATUS_SYSTEM_EXC, STATUS_USER_EXC, GiopReply
from repro.pipeline.core import (
    PLANE_CHANNEL,
    PLANE_HTTP,
    PLANE_ORB,
    Interceptor,
    Pipeline,
    RequestContext,
)
from repro.web.http import (
    BAD_REQUEST,
    CONFLICT,
    FORBIDDEN,
    NOT_FOUND,
    SERVER_ERROR,
)
from repro.wire import AckMessage, RegisterMessage


class SecurityInterceptor(Interceptor):
    """First-level auth at the dispatch boundary (two-level security, §5.2.2).

    On the channel plane it authenticates registering applications against
    their pre-assigned tokens (§4.1) before any proxy state is created.
    The HTTP and ORB planes authenticate at the session/servant layer
    (login and per-app ACLs); this interceptor is their seam for future
    transport-level checks.
    """

    name = "security"

    def __init__(self, security: SecurityManager) -> None:
        self.security = security

    def before(self, ctx: RequestContext) -> None:
        if ctx.plane == PLANE_CHANNEL and isinstance(ctx.request,
                                                     RegisterMessage):
            msg = ctx.request
            if not self.security.authenticate_application(msg.app_name,
                                                          msg.auth_token):
                raise SecurityError("authentication failed")


class AdmissionInterceptor(Interceptor):
    """§6.3 resource policies at every plane's front door.

    Rejects a request with :class:`PolicyViolation` when its principal's
    token bucket (requests/s or bytes/s) is exhausted, and counts
    nothing: recording sits outside it, so an admitted or shed request is
    one ledger entry and one :class:`repro.metrics.PipelineMetrics`
    observation (a shed one with the error type ``PolicyViolation``).
    Replaces the ORB-only ``admission`` attribute, so oneway ORB calls,
    HTTP requests, and channel messages all drain the same buckets.
    """

    name = "admission"

    def __init__(self, policies: PolicyManager) -> None:
        self.policies = policies

    def before(self, ctx: RequestContext) -> None:
        now = ctx.started_at if ctx.started_at is not None else 0.0
        self.policies.check(ctx.principal or "anonymous", now, ctx.size)


class ErrorEnvelopeInterceptor(Interceptor):
    """Uniform error envelopes for all three planes.

    Absorbs any exception escaping the handler (or a ``before`` hook
    further in) and converts it to the plane's reply shape; the
    exception's class name stays in ``ctx.error_type``, so the same
    failure is observable identically on every plane:

    - HTTP: a ``(status, {"error": message})`` body — the mapping the
      per-servlet ``_error`` helpers used to duplicate (SecurityError→403,
      LockError→409, CollaborationError→404, OrbError→502-ish 500,
      KeyError/ValueError→400, anything else→500).
    - ORB: a :class:`GiopReply` — CORBA system exceptions for the ORB's
      own failures, user exceptions for everything a servant raised.
    - channel: a negative :class:`AckMessage` for registrations; other
      channel messages have no reply path, so the error is absorbed
      silently (the daemon listener must never die on a bad message).
    """

    name = "error-envelope"

    def on_error(self, ctx: RequestContext) -> None:
        exc = ctx.error
        if exc is None:
            return
        if ctx.plane == PLANE_ORB:
            system = isinstance(exc, (ObjectNotFound, BadOperation,
                                      CommFailure))
            status = STATUS_SYSTEM_EXC if system else STATUS_USER_EXC
            request_id = getattr(ctx.request, "request_id", ctx.request_id)
            ctx.response = GiopReply(request_id, status, None,
                                     type(exc).__name__, str(exc))
        elif ctx.plane == PLANE_CHANNEL:
            if isinstance(ctx.request, RegisterMessage):
                ctx.response = AckMessage(ctx.request.msg_id, ok=False,
                                          info=str(exc))
        else:
            ctx.response = (self.http_status(exc),
                            {"error": self.http_message(exc)})
        ctx.error = None

    @staticmethod
    def http_status(exc: BaseException) -> int:
        """The HTTP status one middleware exception maps to."""
        if isinstance(exc, SecurityError):
            return FORBIDDEN
        if isinstance(exc, LockError):
            return CONFLICT
        if isinstance(exc, CollaborationError):
            return NOT_FOUND
        if isinstance(exc, (KeyError, ValueError)):
            return BAD_REQUEST
        return SERVER_ERROR

    @staticmethod
    def http_message(exc: BaseException) -> str:
        """The HTTP error-body message for one middleware exception."""
        if isinstance(exc, (SecurityError, LockError, CollaborationError)):
            return str(exc)
        if isinstance(exc, OrbError):
            return f"peer failure: {exc}"
        if isinstance(exc, KeyError):
            return f"missing parameter {exc}"
        if isinstance(exc, ValueError):
            return f"bad parameters: {exc}"
        return f"{type(exc).__name__}: {exc}"


def default_pipeline(*, clock: Optional[Callable[[], float]] = None,
                     metrics: Optional[PipelineMetrics] = None,
                     security: Optional[SecurityManager] = None,
                     policies: Optional[PolicyManager] = None,
                     tracer=None, server: str = "",
                     accounting=None) -> Pipeline:
    """The standard chain of any plane: envelope → recording → security
    → admission → handler (each step only when its collaborator — a
    metrics collector, tracer or ledger; the managers — is given).

    Recording sits inside the envelope so it sees the raw exception
    before the envelope absorbs it into a reply shape, and before
    security/admission so rejected and shed requests are still recorded
    against their principal.  ``accounting`` is a
    :class:`repro.obs.RequestCostLedger`.  The chain is the same on every
    plane: the interceptors read each request's plane from its context.

    A ``tracer`` that samples nothing (``sampling`` is fixed at its
    construction) counts as not given: nothing describes each request
    to it only to be answered ``None``.

    Bare components (a :class:`~repro.web.ServletContainer` or
    :class:`~repro.orb.Orb` outside a :class:`DiscoverServer`) call this
    with a clock and at most an off tracer: their chain is the envelope.
    :class:`~repro.core.server.DiscoverServer` passes its shared managers
    so all three planes report into one place.
    """
    if tracer is not None and not tracer.enabled:
        tracer = None
    chain = [ErrorEnvelopeInterceptor()]
    if any(sink is not None for sink in (metrics, tracer, accounting)):
        # deferred: repro.obs imports the pipeline package
        from repro.obs import RecordingInterceptor
        chain.append(RecordingInterceptor(metrics=metrics, tracer=tracer,
                                          server=server, ledger=accounting))
    if security is not None:
        chain.append(SecurityInterceptor(security))
    if policies is not None:
        chain.append(AdmissionInterceptor(policies))
    return Pipeline(chain, clock=clock)
