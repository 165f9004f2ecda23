"""The "pool of services" model (§3, Figure 3) and the CORBA CoG kit (§7).

§3: backend services "may be specific to a server or may form a pool of
services that can be accessed by any server using standard protocols" —
each advertised through the trader and bound "using a ubiquitous and
pervasive protocol such as CORBA/IIOP", with availability "determined at
runtime" (§4.2).

§7 describes the intended composition: "a client can use Globus services
provided by the CORBA CoG Kit to discover, allocate and stage a scientific
simulation, and then use the DISCOVER web-portal to collaboratively
monitor, interact with, and steer the application."

This module implements both:

- :class:`ServicePool` — discover/bind non-DISCOVER services by service id
  through the trader.
- :class:`MonitoringService` — a pool service aggregating server health
  (the "monitoring service" of Figure 3).
- :class:`CorbaCoGKit` — the grid-services stand-in: allocate a compute
  host, stage an application class onto it, and launch it; the launched
  application registers with its domain's DISCOVER server like any other,
  so the §7 composition works end to end (see
  ``examples/cog_grid_launch.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.orb import ObjectNotFound, OrbError, ServiceOffer
from repro.steering.application import AppConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import Collaboratory
    from repro.net.host import Host
    from repro.orb.core import Orb


class ServicePool:
    """Runtime discovery of pool services through the trader (§3).

    A thin helper each server (or client-side tool) can use:
    ``offers = yield from pool.discover("MONITORING")`` then invoke the
    returned references.  Nothing is cached beyond one call — the paper is
    explicit that "the availability of these servers is not guaranteed and
    must be determined at runtime".
    """

    def __init__(self, orb: "Orb", trader_ref, timeout: float = 30.0) -> None:
        self.orb = orb
        self.trader_ref = trader_ref
        self.timeout = timeout

    def discover(self, service_id: str,
                 constraints: Optional[dict] = None):
        """Generator: all live offers for ``service_id``."""
        offers = yield from self.orb.invoke(
            self.trader_ref, "query", service_id, constraints,
            timeout=self.timeout)
        return offers

    def bind_first(self, service_id: str,
                   constraints: Optional[dict] = None):
        """Generator: the reference of the first matching offer.

        Raises :class:`ObjectNotFound` when the pool has no such service.
        """
        offers = yield from self.discover(service_id, constraints)
        for offer in offers:
            try:
                yield from self.orb.invoke(offer.ref, "ping",
                                           timeout=self.timeout)
            except OrbError:
                continue  # determined at runtime: skip dead offers
            return offer.ref
        raise ObjectNotFound(f"no live {service_id!r} service in the pool")


class MonitoringService:
    """A pool service reporting the health of the server network.

    Registered DISCOVER servers push periodic heartbeats; clients (or
    operators) query the aggregate — the "network-monitoring tools" slot of
    the §3 architecture.
    """

    SERVICE_ID = "MONITORING"

    def __init__(self) -> None:
        self._heartbeats: Dict[str, dict] = {}

    def ping(self) -> str:
        return "monitoring"

    def heartbeat(self, server: str, stats: dict, at: float) -> bool:
        """A server reports its current stats."""
        self._heartbeats[server] = {"stats": dict(stats), "at": at}
        return True

    def network_status(self) -> Dict[str, dict]:
        """Latest heartbeat per server."""
        return dict(self._heartbeats)

    def servers_seen(self) -> List[str]:
        return sorted(self._heartbeats)


class JobRecord:
    """One staged/launched application managed by the CoG kit."""

    def __init__(self, job_id: str, app_name: str, host_name: str,
                 domain: str) -> None:
        self.job_id = job_id
        self.app_name = app_name
        self.host_name = host_name
        self.domain = domain
        self.state = "staged"
        self.app: Any = None

    def descriptor(self) -> dict:
        return {
            "job_id": self.job_id,
            "app_name": self.app_name,
            "host": self.host_name,
            "domain": self.domain,
            "state": self.state,
            "app_id": getattr(self.app, "app_id", None),
        }


class CorbaCoGKit:
    """Grid job management à la the CORBA CoG kit (§7's composition).

    Holds a catalogue of launchable application types and a set of compute
    hosts per domain.  ``submit_job`` allocates the least-loaded host,
    "stages" the code (a modeled staging delay), instantiates the
    application, and starts it — after which it registers with its domain's
    DISCOVER server and is steerable through any portal in the network.
    """

    SERVICE_ID = "GRID_COG"

    def __init__(self, collab: "Collaboratory",
                 staging_time: float = 1.0) -> None:
        self.collab = collab
        self.sim = collab.sim
        self.staging_time = staging_time
        self._catalogue: Dict[str, Callable] = {}
        self._jobs: Dict[str, JobRecord] = {}
        self._host_load: Dict[str, int] = {}

    # -- catalogue -----------------------------------------------------------
    def register_application_type(self, name: str,
                                  factory: Callable) -> None:
        """Make an application class launchable by name."""
        self._catalogue[name] = factory

    def catalogue(self) -> List[str]:
        return sorted(self._catalogue)

    def ping(self) -> str:
        return "grid-cog"

    # -- resource brokering ---------------------------------------------------
    def _allocate_host(self, domain_index: int) -> "Host":
        domain = self.collab.domains[domain_index]
        hosts = domain.app_hosts or [domain.server]
        return min(hosts, key=lambda h: self._host_load.get(h.name, 0))

    # -- job lifecycle ---------------------------------------------------------
    def submit_job(self, app_type: str, name: str, domain_index: int,
                   acl: dict, config: Optional[dict] = None,
                   kwargs: Optional[dict] = None):
        """Generator: discover resources, stage, and launch (§7).

        Returns the job descriptor; the application id becomes available
        once registration completes (poll :meth:`job_status`).
        """
        factory = self._catalogue.get(app_type)
        if factory is None:
            raise ObjectNotFound(f"no application type {app_type!r} in the "
                                 f"CoG catalogue")
        host = self._allocate_host(domain_index)
        self._host_load[host.name] = self._host_load.get(host.name, 0) + 1
        job = JobRecord(f"job-{self.sim.next_id('job')}", name, host.name,
                        self.collab.domains[domain_index].name)
        self._jobs[job.job_id] = job
        # staging: shipping the executable + input deck to the host
        if self.staging_time > 0:
            yield self.sim.timeout(self.staging_time)
        app_config = AppConfig(**config) if config else None
        app = factory(host, name,
                      self.collab.domains[domain_index].server.name,
                      acl=dict(acl), config=app_config, **(kwargs or {}))
        self.collab.apps.append(app)
        job.app = app
        job.state = "running"
        app.start()
        return job.descriptor()

    def job_status(self, job_id: str) -> dict:
        """Current descriptor for a job (app_id filled in once registered)."""
        job = self._job(job_id)
        if job.state == "running" and job.app is not None:
            if job.app.state == "stopped":
                job.state = "finished"
        return job.descriptor()

    def cancel_job(self, job_id: str) -> dict:
        """Ask the application to stop at its next interaction phase."""
        job = self._job(job_id)
        if job.app is not None and job.app.state != "stopped":
            job.app.request_stop()
            job.state = "cancelled"
        return job.descriptor()

    def list_jobs(self) -> List[dict]:
        return [j.descriptor() for j in self._jobs.values()]

    def _job(self, job_id: str) -> JobRecord:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise ObjectNotFound(f"no job {job_id!r}") from None


def deploy_pool_services(collab: "Collaboratory",
                         staging_time: float = 1.0,
                         heartbeat_period: float = 5.0) -> dict:
    """Activate the pool services on the registry host and export offers.

    Returns ``{"monitoring": ..., "cog": ..., "pool": ...}`` with the
    servant instances and a ready :class:`ServicePool` bound to the
    registry's trader.  Servers begin heartbeating to the monitor.
    """
    from repro.core.visualization import VisualizationService

    orb = collab.registry_orb
    monitoring = MonitoringService()
    cog = CorbaCoGKit(collab, staging_time=staging_time)
    viz = VisualizationService()
    mon_ref = orb.activate(monitoring, key="MonitoringService")
    cog_ref = orb.activate(cog, key="CorbaCoGKit")
    viz_ref = orb.activate(viz, key="VisualizationService")
    for service_id, ref in ((MonitoringService.SERVICE_ID, mon_ref),
                            (CorbaCoGKit.SERVICE_ID, cog_ref),
                            (VisualizationService.SERVICE_ID, viz_ref)):
        collab.trader.export(ServiceOffer(collab.sim.next_id("offer"),
                                          service_id, ref,
                                          {"host": "registry"}))

    def heartbeater(server):
        while True:
            yield collab.sim.timeout(heartbeat_period)
            try:
                yield from server.orb.invoke(
                    mon_ref, "heartbeat", server.name, dict(server.stats),
                    collab.sim.now, timeout=heartbeat_period)
            except OrbError:
                continue  # monitor temporarily unavailable

    for server in collab.servers.values():
        collab.sim.spawn(heartbeater(server),
                         name=f"heartbeat@{server.name}")
    return {"monitoring": monitoring, "cog": cog, "visualization": viz,
            "monitoring_ref": mon_ref, "cog_ref": cog_ref,
            "visualization_ref": viz_ref}


def pool_for_server(server) -> ServicePool:
    """A :class:`ServicePool` bound to one server's ORB and trader."""
    if server.trader_ref is None:
        raise OrbError(f"server {server.name} has no trader configured")
    return ServicePool(server.orb, server.trader_ref,
                       timeout=server.peer_call_timeout)
