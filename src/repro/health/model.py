"""Health status taxonomy and the hysteresis state machine.

The paper's Daemon handler and server-to-server Control network exist so
operators can tell which servers and applications in the collaboratory
are alive; this module gives that judgement a first-class representation.
Each monitored component — a server, an application proxy, a peer — is a
:class:`ComponentHealth` fed a stream of success/failure observations
(heartbeats, liveness pings, relay outcomes) and reduced to one of four
statuses:

- ``healthy`` — recent observations succeed
- ``degraded`` — a previously healthy component missed an observation
  (transient WAN blip territory; nothing is routed away yet)
- ``unhealthy`` — :data:`DOWN_AFTER` consecutive misses (routing avoids
  the component; callers fail over eagerly)
- ``unknown`` — never observed

Transitions are hysteretic so statuses do not flap: going *down* takes
:data:`DOWN_AFTER` consecutive failures and coming *back* from unhealthy
takes :data:`UP_AFTER` consecutive successes.  A degraded component recovers
on a single success — it was never considered down.

Everything here is plain bookkeeping on the simulated clock: recording
an observation schedules no events, sends no messages, and charges no
CPU, which is what lets the health plane run enabled-by-default without
perturbing a single experiment table.

This module is internal to :mod:`repro.health` — callers use the
:class:`~repro.health.monitor.HealthMonitor` query API via the package
facade (these classes are not in ``repro.health.__all__``, which
``tools/check_pipeline_boundary.py`` reads).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

#: never observed
STATUS_UNKNOWN = "unknown"
#: recent observations succeed
STATUS_HEALTHY = "healthy"
#: a healthy component missed at least one observation (not yet down)
STATUS_DEGRADED = "degraded"
#: :data:`DOWN_AFTER` consecutive misses — routing avoids the component
STATUS_UNHEALTHY = "unhealthy"

#: all statuses, in increasing order of badness
STATUS_ORDER = (STATUS_UNKNOWN, STATUS_HEALTHY, STATUS_DEGRADED,
                STATUS_UNHEALTHY)

#: numeric encoding for gauges (Prometheus export, registry snapshots)
STATUS_CODES = {STATUS_UNKNOWN: 0, STATUS_HEALTHY: 1,
                STATUS_DEGRADED: 2, STATUS_UNHEALTHY: 3}

#: hysteresis: consecutive misses before a component goes down
DOWN_AFTER = 3
#: hysteresis: consecutive successes before it is trusted again
UP_AFTER = 2


class ComponentHealth:
    """Hysteresis state machine for one monitored component."""

    __slots__ = ("component", "status", "since", "_fail_streak",
                 "_ok_streak", "successes", "failures", "transitions")

    def __init__(self, component: str) -> None:
        self.component = component
        self.status = STATUS_UNKNOWN
        #: sim time of the last status change (0.0 until first observed)
        self.since = 0.0
        self._fail_streak = 0
        self._ok_streak = 0
        self.successes = 0
        self.failures = 0
        #: (time, old_status, new_status) history, oldest first
        self.transitions: List[Tuple[float, str, str]] = []

    def _become(self, status: str, now: float) -> None:
        if status == self.status:
            return
        self.transitions.append((now, self.status, status))
        self.status = status
        self.since = now

    def record_success(self, now: float) -> str:
        """One good observation (heartbeat arrived, call succeeded)."""
        self.successes += 1
        self._ok_streak += 1
        self._fail_streak = 0
        if self.status in (STATUS_UNKNOWN, STATUS_DEGRADED):
            # unknown: first contact; degraded: it was never down —
            # a single good observation restores full trust.
            self._become(STATUS_HEALTHY, now)
        elif self.status == STATUS_UNHEALTHY:
            if self._ok_streak >= UP_AFTER:
                self._become(STATUS_HEALTHY, now)
        return self.status

    def record_failure(self, now: float) -> str:
        """One missed/failed observation."""
        self.failures += 1
        self._fail_streak += 1
        self._ok_streak = 0
        if self._fail_streak >= DOWN_AFTER:
            self._become(STATUS_UNHEALTHY, now)
        elif self.status == STATUS_HEALTHY:
            self._become(STATUS_DEGRADED, now)
        return self.status

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ComponentHealth {self.component!r} {self.status} "
                f"ok={self._ok_streak} fail={self._fail_streak}>")


class HealthModel:
    """All components one server knows about, keyed by component name.

    Component keys follow a two-part convention shared fleet-wide (so
    gossiped views merge cleanly): ``server:<name>`` for DISCOVER
    servers (self and peers alike) and ``app:<app_id>`` for application
    proxies.
    """

    def __init__(self, *, clock: Callable[[], float]) -> None:
        self._clock = clock
        self._components: Dict[str, ComponentHealth] = {}

    # -- observation -------------------------------------------------------
    def component(self, key: str) -> ComponentHealth:
        entry = self._components.get(key)
        if entry is None:
            entry = self._components[key] = ComponentHealth(key)
        return entry

    def record_success(self, key: str) -> str:
        return self.component(key).record_success(self._clock())

    def record_failure(self, key: str) -> str:
        return self.component(key).record_failure(self._clock())

    # -- queries -----------------------------------------------------------
    def status_of(self, key: str) -> str:
        entry = self._components.get(key)
        return entry.status if entry is not None else STATUS_UNKNOWN

    def is_unhealthy(self, key: str) -> bool:
        return self.status_of(key) == STATUS_UNHEALTHY

    def statuses(self) -> Dict[str, str]:
        return {key: entry.status
                for key, entry in sorted(self._components.items())}

    def status_counts(self) -> Dict[str, int]:
        """``{status: how many components}`` over every known status."""
        counts = {status: 0 for status in STATUS_ORDER}
        for entry in self._components.values():
            counts[entry.status] += 1
        return counts

    def detection_latency(self, key: str, since: float) -> Optional[float]:
        """Sim seconds from ``since`` until ``key`` first went unhealthy
        at or after ``since`` (None if it never did)."""
        entry = self._components.get(key)
        if entry is None:
            return None
        for when, _old, new in entry.transitions:
            if new == STATUS_UNHEALTHY and when >= since:
                return when - since
        return None

    def snapshot(self) -> dict:
        """Plain-dict reduction for the metrics registry / status surface."""
        return {
            "counts": self.status_counts(),
            "components": {
                key: {"status": entry.status, "since": entry.since,
                      "failures": entry.failures,
                      "successes": entry.successes}
                for key, entry in sorted(self._components.items())
            },
        }
