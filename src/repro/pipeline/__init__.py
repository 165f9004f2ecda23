"""Portable-interceptor request pipeline shared by all three planes.

- :mod:`repro.pipeline.core` — :class:`RequestContext`,
  :class:`Interceptor`, :class:`Pipeline` (plane-neutral, dependency-free).
- :mod:`repro.pipeline.interceptors` — the standard cross-cutting chain:
  error envelope, security, admission (recording is
  :class:`repro.obs.RecordingInterceptor`).

The interceptors are imported from :mod:`repro.pipeline.interceptors`
itself: dispatch modules import :mod:`repro.pipeline.core` while this
package initializes, so the package ``__init__`` must not pull in the
interceptors (which import the core managers, which import the dispatch
modules).
"""

from repro.pipeline.core import (
    PLANE_CHANNEL,
    PLANE_HTTP,
    PLANE_ORB,
    PLANES,
    Interceptor,
    Pipeline,
    RequestContext,
)

__all__ = [
    "PLANES",
    "PLANE_CHANNEL",
    "PLANE_HTTP",
    "PLANE_ORB",
    "Interceptor",
    "Pipeline",
    "RequestContext",
]
