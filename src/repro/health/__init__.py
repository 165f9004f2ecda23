"""Fleet health plane: heartbeats, hysteresis, SLO burn rates, export.

The paper's Daemon handler and server-to-server Control network exist so
operators can tell which servers and applications are alive; this
package turns that implicit knowledge into a first-class surface.  Each
:class:`~repro.core.server.DiscoverServer` owns a :class:`HealthMonitor`
whose heartbeat process folds local and federated liveness signals into
per-component statuses with hysteresis, evaluates declarative
:class:`SLOSpec` objectives with multi-window burn-rate alerting into a
deduplicating :class:`AlertLog`, and exports everything through the
Prometheus text format and the ``/status`` servlet.

Boundary: other ``repro`` packages interact with the health plane only
through this facade and the :class:`HealthMonitor` query API
(``status_of`` / ``is_unhealthy_peer`` / ``fleet_view`` / ``snapshot``).
Hysteresis internals (``ComponentHealth``, ``HealthModel``) stay inside
``repro.health``: this facade's ``__all__`` is the boundary, which the
facade rule of ``tools/check_pipeline_boundary.py`` enforces.
"""

from repro.health.model import (STATUS_CODES, STATUS_DEGRADED,
                                STATUS_HEALTHY, STATUS_ORDER,
                                STATUS_UNHEALTHY, STATUS_UNKNOWN)
from repro.health.monitor import HealthMonitor, default_slos
from repro.health.prometheus import parse_prometheus, to_prometheus
from repro.health.slo import (Alert, AlertLog, SLOEngine, SLOSpec,
                              SEVERITY_PAGE, SEVERITY_TICKET)

__all__ = [
    "Alert",
    "AlertLog",
    "HealthMonitor",
    "SEVERITY_PAGE",
    "SEVERITY_TICKET",
    "SLOEngine",
    "SLOSpec",
    "STATUS_CODES",
    "STATUS_DEGRADED",
    "STATUS_HEALTHY",
    "STATUS_ORDER",
    "STATUS_UNHEALTHY",
    "STATUS_UNKNOWN",
    "default_slos",
    "parse_prometheus",
    "to_prometheus",
]
