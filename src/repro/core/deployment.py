"""Scenario assembly: whole collaboratory networks in a few calls.

Reproduces the paper's deployment shape (§6.1): one or more collaboratory
domains (Rutgers / UT-Austin / Caltech), each a campus LAN with a DISCOVER
server, application hosts, and client hosts; servers meshed by WAN links; a
registry host running the naming + trader services the servers bootstrap
through (§5.2.1).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.client import DiscoverPortal
from repro.core.server import DiscoverServer
from repro.health import HealthMonitor
from repro.metrics import StorageMetrics
from repro.net import Network, build_multi_domain
from repro.net.costs import CostModel, LinkSpec
from repro.net.topology import Domain
from repro.obs import (MetricsRegistry, RequestCostLedger,
                       TimeSeriesRegistry, Tracer)
from repro.orb import NamingService, Orb, TraderService
from repro.sim import Simulator
from repro.steering.application import AppConfig, SteerableApplication
from repro.storage import DEFAULT_SNAPSHOT_EVERY, MemoryBackend, StateJournal


def reset_runtime_ids() -> None:
    """Re-seed the module-global id counters used across the runtime.

    Message ids, session ids, ports, and similar identifiers ride the
    wire as strings, so a deployment's encoded byte totals depend on how
    many digits these process-global counters have grown to.  Without a
    reset, two identical drills run back-to-back in one process charge
    slightly different ``wan_bytes`` into the cost ledger — breaking the
    bit-for-bit determinism E13/E14 assert.  The determinism-checked
    drills (``build_fleet``, ``run_telemetry_drill``) re-seed before
    building; within a single deployment the counters still advance
    normally, so uniqueness is untouched.  ``build_collaboratory`` itself
    does *not* reset: the pre-pipeline golden seed
    (tests/pipeline/golden_seed.json) was captured with scenarios run
    back-to-back in one process, so its E4 byte totals bake in the
    counter state E1/E2 left behind.
    """
    from repro.net import network as _network
    from repro.orb import adapter as _adapter
    from repro.orb import trader as _trader
    from repro.sim import process as _process
    from repro.steering import application as _application
    from repro.web import client as _webclient
    from repro.web import http as _http
    from repro.web import session as _websession
    from repro.wire import messages as _messages

    from repro.core import services as _services

    _network._frame_ids = itertools.count(1)
    _adapter._auto_keys = itertools.count(1)
    _trader._offer_seq = itertools.count(1)
    _process._ids = itertools.count(1)
    _application._app_ports = itertools.count(20000)
    _webclient._client_ports = itertools.count(40000)
    _http._request_ids = itertools.count(1)
    _websession._session_seq = itertools.count(1)
    _messages._msg_ids = itertools.count(1)
    _services._job_seq = itertools.count(1)


class Collaboratory:
    """A fully wired multi-domain DISCOVER deployment (made in one
    place: :func:`build_collaboratory`)."""

    def __init__(self, sim: Simulator, net: Network, domains: List[Domain],
                 servers: Dict[str, DiscoverServer], registry_orb: Orb,
                 naming: NamingService, trader: TraderService, *,
                 tracer: Tracer, ledger: Optional[RequestCostLedger],
                 directory, storage: Dict[str, object],
                 make_server: Callable[..., DiscoverServer]) -> None:
        self.sim = sim
        self.net = net
        self.domains = domains
        self.servers = servers
        self.registry_orb = registry_orb
        self.naming = naming
        self.trader = trader
        #: the deployment-wide tracer shared by every server, portal, and
        #: the network — one trace id space, so cross-server trees join up
        self.tracer = tracer
        #: the RequestCostLedger shared by every server and the network
        #: (None with ``accounting_enabled=False``)
        self.ledger = ledger
        #: the optional §6.3 directory, a sharded
        #: :class:`repro.directory.DirectoryPlane` (``use_directory=True``)
        self.directory = directory
        self.apps: List[SteerableApplication] = []
        self.portals: List[DiscoverPortal] = []
        #: server name → its durable storage backend — the medium a crash
        #: does not erase, which :meth:`restart_server` hands on
        self.storage = storage
        #: the builder's own ``make_server(host, backend)``
        self._make_server = make_server
        self._app_host_rr = {d.name: itertools.cycle(d.app_hosts or
                                                     [d.server])
                             for d in domains}
        self._client_host_rr = {d.name: itertools.cycle(d.client_hosts or
                                                        [d.server])
                                for d in domains}

    # -- population ----------------------------------------------------------
    def server_of(self, domain_index: int) -> DiscoverServer:
        return self.servers[self.domains[domain_index].server.name]

    def add_app(self, domain_index: int,
                factory: Callable[..., SteerableApplication], name: str,
                acl: Optional[dict] = None,
                config: Optional[AppConfig] = None,
                start: bool = True,
                **kwargs) -> SteerableApplication:
        """Create an application on the next app host of a domain.

        ``factory`` is a :class:`SteerableApplication` subclass (or any
        callable with the same signature).
        """
        domain = self.domains[domain_index]
        host = next(self._app_host_rr[domain.name])
        app = factory(host, name, domain.server.name,
                      acl=acl or {}, config=config, **kwargs)
        self.apps.append(app)
        if start:
            app.start()
        return app

    def add_portal(self, domain_index: int) -> DiscoverPortal:
        """Create a portal on the next client host of a domain."""
        domain = self.domains[domain_index]
        host = next(self._client_host_rr[domain.name])
        portal = DiscoverPortal(host, domain.server.name,
                                tracer=self.tracer)
        self.portals.append(portal)
        return portal

    # -- observability --------------------------------------------------------
    def metrics_registry(self) -> MetricsRegistry:
        """One snapshot surface over every collector in the deployment:
        each server's own sources, the directory plane, the network's
        traffic trace, the span store, and the cost ledger."""
        registry = MetricsRegistry()
        for name in sorted(self.servers):
            server = self.servers[name]
            for label, source in server.metrics_registry().items():
                # the ledger is deployment-shared: once below, not per server
                if source is not server.ledger:
                    registry.register(label, source)
        if self.directory is not None:
            registry.register("directory_plane", self.directory)
        registry.register("traffic", self.net.trace)
        registry.register("spans", self.tracer)
        if self.ledger is not None:
            registry.register("costs", self.ledger)
        return registry

    def merged_timeseries(self, extra=()):
        """Fleet-wide time-series view: every live server's registry
        merged bucket-by-bucket (counters/gauges add, histograms merge
        exactly).  ``extra`` adds registries of servers no longer in
        :attr:`servers` — e.g. a killed server's pre-crash telemetry."""
        registries = [self.servers[name].timeseries
                      for name in sorted(self.servers)
                      if self.servers[name].timeseries is not None]
        registries.extend(extra)
        return TimeSeriesRegistry.merged(registries, clock=lambda:
                                         self.sim.now)

    # -- bootstrap ------------------------------------------------------------
    def bootstrap(self):
        """Generator: publish every server, then mutual peer discovery."""
        for server in self.servers.values():
            yield from server.publish()
        for server in self.servers.values():
            yield from server.discover_peers()

    def run_bootstrap(self) -> None:
        """Drive the simulation through :meth:`bootstrap`."""
        proc = self.sim.spawn(self.bootstrap(), name="bootstrap")
        self.sim.run(until=proc)

    def stop(self) -> None:
        """Shut every server down (end of scenario)."""
        for server in self.servers.values():
            server.stop()

    # -- crash recovery (E12) ------------------------------------------------
    def restart_server(self, name: str):
        """Replace a stopped server with a fresh one on the same host and
        recover its planes from the surviving storage backend.

        The replacement comes out of the closure :func:`build_collaboratory`
        built the original with: same options, same shared tracer and
        ledger, a time-series registry, journal and heartbeat of its own.

        Returns ``(server, report)`` — the replacement and its
        :class:`~repro.storage.RecoveryReport`.  The caller re-runs
        :meth:`run_bootstrap` (or drives :meth:`bootstrap`) afterwards so
        the replacement rejoins the peer mesh.
        """
        server = self._make_server(self.servers[name].host,
                                   self.storage[name])
        self.servers[name] = server
        return server, server.recover()


def build_collaboratory(n_domains: int, *, apps_hosts_per_domain: int = 4,
                        client_hosts_per_domain: int = 4,
                        names: Optional[List[str]] = None,
                        spec: Optional[LinkSpec] = None,
                        cost_model: Optional[CostModel] = None,
                        server_cpus: int = 1,
                        client_buffer_capacity: float = float("inf"),
                        use_directory: bool = False,
                        update_mode: str = "push",
                        update_poll_interval: float = 0.5,
                        remote_access: str = "relay",
                        trace_sampling="always",
                        trace_max_spans: int = 50_000,
                        health_period: float = 0.5,
                        health_gossip_period: Optional[float] = None,
                        health_enabled: bool = True,
                        accounting_enabled: bool = True,
                        log_sink=None,
                        storage_backend_factory=None,
                        storage_snapshot_every: Optional[int] = None,
                        timeseries_bucket_width: float = 0.25) -> Collaboratory:
    """Build a ready-to-bootstrap multi-domain collaboratory.

    A composition root (:func:`repro.bench.fleet.build_fleet` is the
    other): planes are constructed here and nowhere below.  The local
    ``make_server`` closure builds one server's time-series registry,
    journal and heartbeat from the keyword values, hands them over with
    the shared tracer and ledger, and stays on the deployment for
    :meth:`Collaboratory.restart_server`.  ``health_enabled=False`` /
    ``accounting_enabled=False``: no heartbeat / no ledger is built, and
    the servers are handed none.

    ``trace_sampling`` / ``trace_max_spans`` configure the shared
    :class:`~repro.obs.Tracer` (``"always"`` or ``"off"``).  Tracing is
    zero-event bookkeeping — it never changes virtual time or wire sizes,
    whatever the knob says.

    ``storage_backend_factory`` maps a server name to its durable
    :class:`~repro.storage.StorageBackend` (default: a fresh
    :class:`~repro.storage.MemoryBackend` per server, so every deployment
    is restartable via :meth:`Collaboratory.restart_server`).
    ``storage_snapshot_every`` overrides the journal's snapshot cadence.
    """
    sim = Simulator()
    spec = spec or LinkSpec()
    costs = cost_model or CostModel()
    net, domains = build_multi_domain(
        sim, n_domains, apps_hosts_per_domain, client_hosts_per_domain,
        spec=spec, server_cpus=server_cpus, names=names)
    tracer = Tracer(sim, sampling=trace_sampling, max_spans=trace_max_spans)
    if tracer.enabled:
        # the network asks its tracer on every send and hop; one that
        # samples nothing is not attached, so it is not asked
        net.tracer = tracer
    # One cost ledger for the whole deployment: the rollup key carries no
    # server dimension, so every server's interceptor, the network and the
    # tracer (a span joins the cost vector of the request that minted it)
    # attribute into the same instance (zero-event bookkeeping).
    ledger = None
    if accounting_enabled:
        ledger = RequestCostLedger(sim)
        net.trace.ledger = tracer.ledger = ledger

    # Registry host (naming + trader) on the first domain's LAN — the
    # "centralized directory service like the GIS" of §6.3.
    registry_host = net.add_host("registry", domain=domains[0].name)
    net.add_link(registry_host.name, domains[0].server.name,
                 spec.lan_latency, spec.lan_bandwidth, kind="lan")
    registry_orb = Orb(registry_host, cost_model=costs, tracer=tracer)
    naming = NamingService()
    trader = TraderService(naming, sim=sim, match_cost=costs.trader_match_cost)
    naming_ref = registry_orb.activate(naming, key=NamingService.OBJECT_KEY)
    trader_ref = registry_orb.activate(trader, key=TraderService.OBJECT_KEY)
    directory = None
    if use_directory:
        # §6.3's GIS-style user directory: one shard co-hosted with the
        # registry, the paper's exact deployment shape (a sharded,
        # replicated ring is the fleet's: repro.bench.fleet.build_fleet)
        from repro.directory import DirectoryPlane
        directory = DirectoryPlane()
        directory.add_shard(registry_host.name, registry_orb)

    snapshot_every = (DEFAULT_SNAPSHOT_EVERY if storage_snapshot_every is None
                      else storage_snapshot_every)

    def make_server(host, backend) -> DiscoverServer:
        timeseries = TimeSeriesRegistry(
            clock=lambda: sim.now, bucket_width=timeseries_bucket_width)
        journal = StateJournal(
            backend, clock=lambda: sim.now, snapshot_every=snapshot_every,
            metrics=StorageMetrics(timeseries, ledger))
        server = DiscoverServer(
            host, cost_model=costs, naming_ref=naming_ref,
            trader_ref=trader_ref, update_mode=update_mode,
            client_buffer_capacity=client_buffer_capacity,
            update_poll_interval=update_poll_interval,
            remote_access=remote_access, tracer=tracer, ledger=ledger,
            timeseries=timeseries, journal=journal)
        server.log.sink = log_sink
        if health_enabled:
            server.attach_health(HealthMonitor(
                server, period=health_period,
                gossip_period=health_gossip_period))
        if directory is not None:  # after the heartbeat: the client keeps it
            server.attach_directory(directory.client_for(server))
        return server

    servers: Dict[str, DiscoverServer] = {}
    backends: Dict[str, object] = {}
    for domain in domains:
        name = domain.server.name
        backends[name] = (storage_backend_factory(name)
                          if storage_backend_factory is not None
                          else MemoryBackend())
        servers[name] = make_server(domain.server, backends[name])
    return Collaboratory(sim, net, domains, servers, registry_orb, naming,
                         trader, tracer=tracer, ledger=ledger,
                         directory=directory, storage=backends,
                         make_server=make_server)


def build_single_server(*, app_hosts: int = 4, client_hosts: int = 4,
                        cost_model: Optional[CostModel] = None,
                        server_cpus: int = 1,
                        spec: Optional[LinkSpec] = None,
                        client_buffer_capacity: float = float("inf")) \
        -> Collaboratory:
    """The single-domain configuration used by experiments E1–E3."""
    return build_collaboratory(
        1, apps_hosts_per_domain=app_hosts,
        client_hosts_per_domain=client_hosts, cost_model=cost_model,
        server_cpus=server_cpus, spec=spec,
        client_buffer_capacity=client_buffer_capacity)
