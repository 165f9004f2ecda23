"""Portable-interceptor request pipeline shared by all three planes.

- :mod:`repro.pipeline.core` — :class:`RequestContext`,
  :class:`Interceptor`, :class:`Pipeline` (plane-neutral, dependency-free).
- :mod:`repro.pipeline.interceptors` — the standard cross-cutting chain:
  error envelope, security, admission (recording is
  :class:`repro.obs.RecordingInterceptor`).

The interceptor re-exports below are lazy (PEP 562): dispatch modules
import :mod:`repro.pipeline.core` while this package initializes, so the
package ``__init__`` must not pull in :mod:`repro.pipeline.interceptors`
(which imports the core managers, which import the dispatch modules).
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

_INTERCEPTOR_EXPORTS = (
    "AdmissionInterceptor",
    "ErrorEnvelopeInterceptor",
    "SecurityInterceptor",
    "default_pipeline",
)

__all__ = [
    "PLANES",
    "PLANE_CHANNEL",
    "PLANE_HTTP",
    "PLANE_ORB",
    "Interceptor",
    "Pipeline",
    "RequestContext",
    *_INTERCEPTOR_EXPORTS,
]


def __getattr__(name):
    if name in _INTERCEPTOR_EXPORTS:
        from repro.pipeline import interceptors

        return getattr(interceptors, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
