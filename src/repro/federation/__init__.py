"""The location-transparency layer of the middleware (§4–5).

The paper's core contribution is the peer-to-peer network of servers that
makes *every* registered application reachable through the client's
*local* server.  This package owns every location/routing concern of that
federation, so the rest of :mod:`repro.core` never asks "is this app
local?":

- :class:`PeerRegistry` — peer discovery (trader), liveness, and the
  level-1/level-2 stub and :class:`~repro.orb.ObjectRef` caches, with
  explicit invalidation on ``app_stopped`` notices, deregistration, and
  :class:`~repro.orb.OrbError` from a peer call.
- :class:`AppRouter` — resolves ``app_id`` to an :class:`AppHandle`.
- :class:`AppHandle` / :class:`LocalAppHandle` / :class:`RemoteAppHandle`
  — one generator interface (``open``, ``deliver_command``, locks,
  ``get_updates_since``, group publish, replay) over the paper's level-1
  ``DiscoverCorbaServer`` and level-2 ``CorbaProxy`` interfaces.
- :class:`SubscriptionManager` — the push-subscribe / poll-fallback
  lifecycle for remote application updates, with per-app staleness and
  failover counters surfaced through
  :class:`repro.metrics.FederationMetrics`.
"""

from repro.federation.handles import (
    AppHandle,
    LocalAppHandle,
    RemoteAppHandle,
)
from repro.federation.registry import PeerRegistry
from repro.federation.router import AppRouter
from repro.federation.subscriptions import SubscriptionManager

__all__ = [
    "AppHandle",
    "AppRouter",
    "LocalAppHandle",
    "PeerRegistry",
    "RemoteAppHandle",
    "SubscriptionManager",
]
