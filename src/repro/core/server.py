"""The DISCOVER interaction/collaboration server.

One :class:`DiscoverServer` per host composes every handler the paper names
(§4.1): a servlet container with the master / command / collaboration /
archival servlets, the daemon bridging local applications, the security
handler, the lock manager, and the ORB exposing the two middleware
interface levels (§5.1) so servers form a peer-to-peer network.

The hybrid architecture (§2.2): server-to-server is peer-to-peer over the
ORB; client-to-server stays client-server over HTTP, so "clients can access
the 'closest' server and have access to applications and services provided
by all the servers".
"""

from __future__ import annotations

import itertools

from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.core import handlers
from repro.core.archival import SessionArchive
from repro.core.collaboration import (
    CollaborationError,
    CollaborationManager,
)
from repro.core.corba import CorbaProxyServant, DiscoverCorbaServerServant
from repro.core.daemon import DaemonService
from repro.core.database import Database
from repro.core.locking import LockError, LockManager
from repro.core.policies import PolicyManager
from repro.core.proxy import ApplicationProxy
from repro.core.security import (
    MUTATING_COMMANDS,
    SecurityError,
    SecurityManager,
)
from repro.core.interfaces import CORBA_PROXY, DISCOVER_CORBA_SERVER
from repro.federation import AppRouter, PeerRegistry, SubscriptionManager
from repro.health import HealthMonitor
from repro.metrics import (
    DirectoryMetrics,
    FederationMetrics,
    PipelineMetrics,
    StorageMetrics,
)
from repro.net.costs import CostModel
from repro.pipeline.core import Pipeline
from repro.orb import ObjectRef, Orb, OrbError, ServiceOffer
from repro.orb.idl import validate_servant
from repro.storage import NULL_JOURNAL, RecoveryReport
from repro.web import ServletContainer
from repro.wire import (
    CommandMessage,
    ControlMessage,
    LockMessage,
    Message,
    UpdateMessage,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host

#: trader service id every DISCOVER server registers under (§5.2.1)
SERVICE_ID = "DISCOVER"


class DiscoverServer:
    """A DISCOVER interaction and collaboration server on one host.

    The first nine keyword arguments are the paper's; the last four are
    sockets for built objects, handed over by whoever composes the
    deployment — the server constructs no plane from options.  Left out,
    ``timeseries`` and ``ledger`` stay ``None`` (every collector already
    skips an absent sink), ``tracer`` samples nothing and ``journal`` is
    :data:`~repro.storage.NULL_JOURNAL`; the heartbeat needs the built
    server and comes through :meth:`attach_health`.  ``DiscoverServer(host)``
    is the paper's server (§4.1, §5.1).
    """

    def __init__(self, host: "Host", *, domain: Optional[str] = None,
                 cost_model: Optional[CostModel] = None,
                 naming_ref: Optional[ObjectRef] = None,
                 trader_ref: Optional[ObjectRef] = None,
                 client_buffer_capacity: float = float("inf"),
                 peer_call_timeout: float = 30.0,
                 update_mode: str = "push",
                 update_poll_interval: float = 0.5,
                 remote_access: str = "relay",
                 tracer=None, ledger=None, timeseries=None,
                 journal=None) -> None:
        self.host = host
        self.sim = host.sim
        self.name = host.name
        self.domain = domain or host.domain
        self.costs = cost_model or CostModel()
        self.naming_ref = naming_ref
        self.trader_ref = trader_ref
        #: optional sharded user/app directory (§6.3 scaled out); a
        #: :class:`repro.directory.DirectoryClient` attached by the
        #: deployment via :meth:`attach_directory` — when set, login is a
        #: single (sharded) directory lookup instead of a peer fan-out
        self.directory = None
        #: how updates for remote apps reach this server: "push" (home
        #: server sends one message per subscribed peer, the default) or
        #: "poll" (this server polls the CorbaProxy — the paper's literal
        #: §5.2.3 description; ablation A4 compares them)
        if update_mode not in ("push", "poll"):
            raise ValueError(f"unknown update_mode {update_mode!r}")
        self.update_mode = update_mode
        self.update_poll_interval = update_poll_interval
        #: how clients reach remote applications: "relay" (this server
        #: forwards over CORBA — the paper's middleware path) or
        #: "redirect" (the §4.1 "request redirection" auxiliary service:
        #: the portal is told to connect to the home server directly)
        if remote_access not in ("relay", "redirect"):
            raise ValueError(f"unknown remote_access {remote_access!r}")
        self.remote_access = remote_access
        #: client id → the HTTP session that logged it in (the one
        #: ``/master/logout`` obeys); a recovered client has none
        self.http_sessions: Dict[str, str] = {}
        self._schedules: Dict[str, Any] = {}
        #: monotonic, so an ended schedule's id is never handed out again
        self._schedule_seq = itertools.count(1)

        # -- collaborators (DESIGN §4i): used as handed over, never built --
        #: sim-time metric streams every collector below also sinks into
        #: (a TimeSeriesRegistry), or None
        self.timeseries = timeseries
        #: the deployment's one RequestCostLedger, or None
        self.ledger = ledger
        #: WAL + snapshot journal every stateful plane writes through; the
        #: backend outlives it, so a replacement server handed a journal
        #: over the same backend rebuilds the planes in :meth:`recover`
        self.journal = journal if journal is not None else NULL_JOURNAL
        #: the journal's own counters (all zero when nothing journals)
        self.storage_metrics = self.journal.metrics or StorageMetrics()
        self.directory_metrics = DirectoryMetrics(timeseries)

        # -- components ---------------------------------------------------
        self.security = SecurityManager()
        self.locks = LockManager(on_grant=self._on_lock_grant,
                                 journal=self.journal)
        self.collab = CollaborationManager(
            self.sim, self.name, buffer_capacity=client_buffer_capacity,
            journal=self.journal)
        self.db = Database(journal=self.journal)
        self.archive = SessionArchive(self.sim, self.db)
        #: §6.3 access policies — enforced at every plane's front door by
        #: its pipeline's admission interceptor (usage is the ledger's)
        self.policies = PolicyManager()
        #: per-plane request counters/latencies shared by all three chains
        self.pipeline_metrics = PipelineMetrics(self.timeseries)
        if tracer is None:
            # Standalone servers trace nothing; a disabled tracer keeps
            # the request paths free of None checks.  Deployments pass
            # one shared tracer so cross-server trees join up.
            from repro.obs import SAMPLE_OFF, Tracer
            tracer = Tracer(sampling=SAMPLE_OFF, clock=lambda: self.sim.now)
        self.tracer = tracer
        #: structured JSONL event log (sim-time + trace-context stamped);
        #: ``log.sink`` is the deployment's to set
        from repro.obs import StructuredLog
        self.log = StructuredLog(clock=lambda: self.sim.now,
                                 server=self.name, tracer=tracer)
        self.container = ServletContainer(
            host, cost_model=self.costs, pipeline=self._build_pipeline(),
            on_session_expired=self._http_session_expired)
        self.daemon = DaemonService(self, pipeline=self._build_pipeline())
        self.orb = Orb(host, cost_model=self.costs,
                       pipeline=self._build_pipeline(),
                       tracer=tracer)

        # -- federation (the location-transparency layer, §4–5) ------------
        #: invalidation / subscription / staleness counters (repro.metrics)
        self.federation_metrics = FederationMetrics(self.timeseries)
        self.registry = PeerRegistry(
            self.orb, self.name, trader_ref=trader_ref,
            service_id=SERVICE_ID, call_timeout=peer_call_timeout,
            metrics=self.federation_metrics)
        self.router = AppRouter(self, self.registry)
        self.subscriptions = SubscriptionManager(self)

        # -- health plane (heartbeats, SLO burn rates, fleet view) ----------
        #: the federation layer reports peer call outcomes here, and
        #: routing consults it to avoid unhealthy peers (one shared feed);
        #: disabled — it folds nothing — until :meth:`attach_health`
        self.attach_health(HealthMonitor(self, enabled=False))
        self.registry.log = self.log

        # -- state -----------------------------------------------------------
        self.local_proxies: Dict[str, ApplicationProxy] = {}
        self.corba_proxy_refs: Dict[str, ObjectRef] = {}
        self.stats = {
            "updates_fanned": 0,
            "remote_update_pushes": 0,
            "commands_submitted": 0,
            "remote_commands_relayed": 0,
            "logins": 0,
        }
        #: optional LatencyRecorder; when set, the server records
        #: "update_lag" — virtual time from an application stamping an
        #: update to the server finishing its fan-out (the E1 metric)
        self.recorder = None

        # -- wiring ------------------------------------------------------------
        self.corba_servant = DiscoverCorbaServerServant(self)
        validate_servant(self.corba_servant, DISCOVER_CORBA_SERVER)
        self.corba_ref = self.orb.activate(
            self.corba_servant, key="DiscoverCorbaServer")
        handlers.mount_all(self)

        # -- durable plane registration (restore order = registration order:
        # the daemon's id sequence first, then proxies, sessions, locks —
        # matching the dependency order of live mutations; the records are
        # applied from the archive after them and depend on none) ----------
        self.journal.register_plane(
            "daemon", snapshot=self.daemon.seq_state,
            restore=self.daemon.restore_seq,
            apply=self.daemon.apply_seq_event)
        self.journal.register_plane("db", apply=self.db.apply_event)
        self.journal.register_plane(
            "proxy", snapshot=self._proxy_plane_snapshot,
            restore=self._proxy_plane_restore, apply=self._proxy_plane_apply)
        self.journal.register_plane(
            "collab", snapshot=self.collab.snapshot_state,
            restore=self.collab.restore_state, apply=self.collab.apply_event)
        self.journal.register_plane(
            "locks", snapshot=self.locks.snapshot_state,
            restore=self.locks.restore_state, apply=self.locks.apply_event)

    # ------------------------------------------------------------------
    # peer network
    # ------------------------------------------------------------------
    def publish(self):
        """Generator: export this server's offer to the trader (§5.2.1)."""
        if self.trader_ref is None:
            return None
        offer = ServiceOffer(self.sim.next_id("offer"), SERVICE_ID,
                             self.corba_ref,
                             {"server": self.name, "domain": self.domain})
        return (yield from self.orb.invoke(
            self.trader_ref, "export", offer, timeout=self.peer_call_timeout))

    @property
    def peers(self) -> Dict[str, ObjectRef]:
        """Peer server name → level-one reference (the registry's view)."""
        return self.registry.peers

    @property
    def peer_call_timeout(self) -> float:
        """Timeout for peer-network calls (owned by the registry; stubs
        created after a change pick up the new value)."""
        return self.registry.call_timeout

    @peer_call_timeout.setter
    def peer_call_timeout(self, value: float) -> None:
        self.registry.call_timeout = value

    def discover_peers(self):
        """Generator: find every other DISCOVER server via the trader."""
        return (yield from self.registry.discover_peers())

    def add_peer(self, name: str, ref: ObjectRef) -> None:
        """Static peer wiring (tests / fixed deployments)."""
        self.registry.add_peer(name, ref)

    # ------------------------------------------------------------------
    # application-side events (invoked by the daemon)
    # ------------------------------------------------------------------
    def on_app_register(self, proxy: ApplicationProxy) -> None:
        self._install_proxy(proxy)
        self.journal.append("proxy.register", proxy.descriptor())

    def _install_proxy(self, proxy: ApplicationProxy) -> None:
        """Wire one application proxy into every plane (register + recover)."""
        self.local_proxies[proxy.app_id] = proxy
        self.security.register_app_acl(proxy.app_id, proxy.acl)
        servant = CorbaProxyServant(self, proxy.app_id)
        validate_servant(servant, CORBA_PROXY)
        ref = self.orb.activate(servant, key=f"CorbaProxy/{proxy.app_id}")
        self.corba_proxy_refs[proxy.app_id] = ref
        if not proxy.active:
            return  # recovered-but-stopped app: queryable, never announced
        # Bind in the network-wide naming service (asynchronously —
        # registration must not block on a WAN round trip).
        if self.naming_ref is not None:
            self.sim.spawn(self._bind_app(proxy.app_id, ref),
                           name=f"bind-{proxy.app_id}")
        # Publish users to the directory plane, if deployed (§6.3).
        if self.directory is not None:
            self.sim.spawn(self._publish_app_to_directory(proxy),
                           name=f"dir-{proxy.app_id}")

    def _restore_proxy(self, desc: dict, active: bool = True,
                       remote_subscribers=()) -> ApplicationProxy:
        """Rebuild a proxy from its journaled descriptor (recovery path).

        Runtime state (phase, pending commands, update ring) starts fresh;
        the application's next phase/update events repopulate it.
        """
        proxy = ApplicationProxy(
            desc["app_id"], desc["app_name"], desc["interface"],
            desc["acl"], app_host=desc["app_host"],
            app_port=desc["app_port"], owner=desc["owner"],
            forward=self.daemon.forward_command)
        proxy.active = active
        proxy.remote_subscribers = set(remote_subscribers)
        self._install_proxy(proxy)
        return proxy

    # -- proxy plane hooks (durable state plane) ------------------------
    def _proxy_plane_snapshot(self) -> list:
        return [{"descriptor": p.descriptor(), "active": p.active,
                 "remote_subscribers": sorted(p.remote_subscribers)}
                for p in self.local_proxies.values()]

    def _proxy_plane_restore(self, state: list) -> None:
        for doc in state:
            self._restore_proxy(doc["descriptor"],
                                active=doc.get("active", True),
                                remote_subscribers=doc.get(
                                    "remote_subscribers", ()))

    def _proxy_plane_apply(self, event: str, data: dict, at: float) -> None:
        if event == "register":
            self._restore_proxy(data)
            return
        proxy = self.local_proxies.get(data.get("app_id"))
        if proxy is None:
            return
        if event == "stop":
            proxy.mark_stopped()
        elif event == "peer_sub":
            proxy.subscribe_server(data["server"])
        elif event == "peer_unsub":
            proxy.unsubscribe_server(data["server"])

    def _bind_app(self, app_id: str, ref: ObjectRef):
        try:
            yield from self.orb.invoke(self.naming_ref, "rebind", app_id, ref,
                                       timeout=self.peer_call_timeout)
        except OrbError:  # naming down: discovery degrades, serving works
            pass

    def _publish_app_to_directory(self, proxy: ApplicationProxy):
        try:
            yield from self.directory.publish_app(
                proxy.app_id, self.name, proxy.app_name, proxy.acl)
        except OrbError:  # directory down: login falls back to fan-out
            pass

    def on_app_update(self, msg: UpdateMessage) -> None:
        proxy = self.local_proxies.get(msg.app_id)
        if proxy is None:
            return
        proxy.on_update(msg)
        # archive on the application log (owner's record, ACL as readers)
        self.archive.log_app_record(
            msg.app_id, proxy.owner, "update",
            {"seq": msg.seq, "timestamp": msg.timestamp},
            readers=list(proxy.acl))
        self._charge_async(self.costs.log_append_cost)
        # local fan-out
        self.stats["updates_fanned"] += self.collab.broadcast_update(
            msg.app_id, msg)
        # one push per subscribed remote server (§5.2.3)
        for peer in proxy.remote_subscribers:
            if self.registry.push_update(peer, msg.app_id, msg):
                self.stats["remote_update_pushes"] += 1
        if self.recorder is not None:
            self.recorder.record("update_lag", self.sim.now - msg.timestamp)

    def on_app_response(self, msg: Message) -> None:
        proxy = self.local_proxies.get(msg.app_id)
        if proxy is not None:
            self.archive.log_app_record(
                msg.app_id, proxy.owner, "response",
                {"request_id": getattr(msg, "request_id", None)},
                readers=list(proxy.acl))
            self._charge_async(self.costs.log_append_cost)
        client_id = msg.client_id
        if client_id is None:
            return
        if self.collab.owner_server(client_id) == self.name:
            self.collab.deliver_response(client_id, msg, app_id=msg.app_id)
        else:
            self._push_remote_client(client_id, msg)

    def on_app_phase(self, app_id: str, phase: str) -> None:
        proxy = self.local_proxies.get(app_id)
        if proxy is not None:
            proxy.on_phase(phase)

    def on_app_deregister(self, app_id: str) -> None:
        proxy = self.local_proxies.get(app_id)
        if proxy is None:
            return
        proxy.mark_stopped()
        self.journal.append("proxy.stop", {"app_id": app_id})
        if self.directory is not None:
            self.sim.spawn(self._withdraw_from_directory(app_id),
                           name=f"undir-{app_id}")
        note = ControlMessage("app_stopped", detail=app_id, app_id=app_id,
                              sender=self.name,
                              msg_id=self.sim.next_id("msg"))
        self.collab.broadcast_update(app_id, note)
        for peer in proxy.remote_subscribers:
            self.registry.push_update(peer, app_id, note)
        self.router.forget(app_id)

    def on_peer_update(self, app_id: str, msg: Message) -> int:
        """A peer pushed an update for an application homed there (§5.2.3).

        An ``app_stopped`` notice invalidates every cached artifact for
        the application — the level-two stub/reference in the registry,
        the router's handle, and the subscription lifecycle state — so a
        later re-registration under a recycled identifier resolves fresh
        instead of hitting a dead servant.
        """
        if isinstance(msg, ControlMessage) and msg.event == "app_stopped":
            self.registry.invalidate_app(app_id)
            self.router.forget(app_id)
            self.subscriptions.forget(app_id)
        else:
            self.subscriptions.observe_update(app_id, msg)
        return self.collab.broadcast_update(app_id, msg)

    # ------------------------------------------------------------------
    # client operations (driven by the servlets)
    # ------------------------------------------------------------------
    def client_login(self, user: str, password: str = ""):
        """Generator: two-level login with network-wide application listing.

        Level one authenticates locally; then, per §5.2.2, the security
        handler authenticates the user with every peer server and collects
        the remote applications they may access.
        """
        yield from self.host.use_cpu(self.costs.ssl_handshake_cost
                                     + self.costs.auth_check_cost)
        known_locally = self.security.authenticate_user(user, password)
        remote_apps: Dict[str, dict] = {}
        if self.directory is not None:
            # §6.3's proposed GIS-style directory, scaled out: one sharded
            # lookup (with replica failover) replaces the peer fan-out.
            try:
                listings = yield from self.directory.lookup(user)
            except OrbError:
                listings = None
            if listings is not None:
                for summary in listings:
                    if summary["server"] != self.name:
                        remote_apps[summary["app_id"]] = summary
                return self._finish_login(user, known_locally, remote_apps)
        remote_apps = yield from self.registry.collect_remote_apps(user)
        return self._finish_login(user, known_locally, remote_apps)

    def _finish_login(self, user: str, known_locally: bool,
                      remote_apps: Dict[str, dict]) -> str:
        # §6.3: user-ids belong to applications, not servers — accept the
        # login if *any* server in the network vouches for the user.
        if not known_locally and not remote_apps:
            raise SecurityError(f"user {user!r} unknown in the network "
                                f"(via {self.name})")
        session = self.collab.create_session(user)
        session.remote_apps = remote_apps
        self.stats["logins"] += 1
        return session.client_id

    def client_logout(self, client_id: str) -> None:
        self._end_schedules(f"sched-{client_id}-")
        self.http_sessions.pop(client_id, None)
        self.locks.drop_client(client_id)
        session = self.collab.drop_session(client_id)
        if session is not None:
            # §5.2.4: a remote application's lock lives at its host server
            # only, so the exit is relayed there — once per host server,
            # spawned, so logout never blocks on a WAN hop
            for home, app_id in session.remote_locks.items():
                self.sim.spawn(
                    self._relay_lock_drop(self.router.resolve(app_id),
                                          client_id),
                    name=f"unlock-{client_id}@{home}")
            # push mode: unsubscribe any remote app this was the last
            # local subscriber of, so its home server stops fanning out
            self.subscriptions.detach_idle(session.apps)

    def _relay_lock_drop(self, handle, client_id: str):
        try:
            yield from handle.drop_client(client_id)
        except OrbError:
            pass  # host server gone: revoking for dead peers is not done yet

    def _http_session_expired(self, http_session) -> None:
        """A browser that went away without ``/master/logout``: its HTTP
        session timing out ends the client's session the same way, or its
        steering lock and waiter positions would outlive it."""
        client_id = http_session.get("client_id")
        if client_id is not None:
            self.client_logout(client_id)

    def visible_apps(self, user: str) -> List[dict]:
        """Local applications ``user`` can access, with privileges."""
        out = []
        for app_id, priv in self.security.accessible_apps(user).items():
            proxy = self.local_proxies.get(app_id)
            if proxy is not None and proxy.active:
                summary = proxy.summary(priv)
                summary["server"] = self.name
                out.append(summary)
        return out

    def list_applications(self, client_id: str) -> List[dict]:
        """Everything this client can see: local + cached remote."""
        session = self.collab.session(client_id)
        local = self.visible_apps(session.user)
        remote = list(session.remote_apps.values())
        return local + remote

    def select_app(self, client_id: str, app_id: str):
        """Generator: second-level auth + subscription; returns the
        customized steering interface (§5.2.2).

        Location-transparent: the router resolves the application to a
        handle and the handle does the rest — a local security check, an
        ORB relay to the home server, or (``redirect`` remote-access mode)
        an instruction for the portal to go to the home server itself.
        """
        session = self.collab.session(client_id)
        handle = self.router.resolve_for(session, app_id)
        info = yield from handle.open(session.user)
        if "redirect" in info:
            return info  # the portal re-selects at the home server
        self.collab.subscribe(client_id, app_id)
        return info

    def submit_command(self, client_id: str, app_id: str, command: str,
                       args: Optional[dict] = None):
        """Generator: route a steering command to the application.

        Local applications go straight to the proxy; remote ones are
        relayed over the ORB to the home server (§5.1.1).  Returns the
        request id whose response will arrive on the client's poll stream.
        """
        session = self.collab.session(client_id)
        self.stats["commands_submitted"] += 1
        return (yield from self.router.resolve_for(session, app_id)
                .deliver_command(session, command, args or {}))

    def submit_local_command(self, user: str, client_id: str, app_id: str,
                             command: str, args: dict,
                             request_id: Optional[int] = None) -> int:
        """Authoritative command admission at the home server (plain call).

        Enforces the per-application ACL and — for mutating commands — the
        single-driver steering lock (§5.2.4).
        """
        with self.tracer.span("proxy.deliver_command", plane="proxy",
                              server=self.name,
                              attrs={"app_id": app_id, "command": command}):
            proxy = self._local_proxy(app_id)
            if not proxy.active:
                raise LockError(f"application {app_id!r} has stopped")
            self.security.authorize_command(user, app_id, command)
            if command in MUTATING_COMMANDS and not self.locks.holds(
                    app_id, client_id):
                raise LockError(
                    f"{client_id!r} must hold the steering lock on "
                    f"{app_id!r} to run {command!r}")
            cmd = CommandMessage(command, args, request_id=request_id,
                                 client_id=client_id, app_id=app_id,
                                 sender=self.name,
                                 msg_id=self.sim.next_id("msg"))
            self.archive.log_interaction(app_id, user, "command",
                                         {"command": command,
                                          "request_id": cmd.request_id},
                                         readers=list(proxy.acl))
            self._charge_async(self.costs.log_append_cost)
            proxy.deliver_command(cmd)
            return cmd.request_id

    # -- scheduled interactions (§2.1: "schedule automated periodic
    # interactions") ------------------------------------------------------
    def schedule_interaction(self, client_id: str, app_id: str,
                             command: str, args: Optional[dict] = None,
                             period: float = 1.0,
                             count: Optional[int] = None) -> str:
        """Issue ``command`` on the client's behalf every ``period``.

        Responses arrive on the client's ordinary poll stream.  The
        schedule ends after ``count`` firings (None = until cancelled,
        logout, or a failure — e.g. losing access or the app stopping).
        Returns the schedule id.
        """
        self.collab.session(client_id)  # validate
        if period <= 0:
            raise ValueError("period must be positive")
        schedule_id = f"sched-{client_id}-{next(self._schedule_seq)}"
        proc = self.sim.spawn(
            self._run_schedule(schedule_id, client_id, app_id, command,
                               dict(args or {}), period, count),
            name=schedule_id)
        self._schedules[schedule_id] = proc
        return schedule_id

    def _end_schedules(self, prefix: str = "sched-") -> None:
        """Interrupt every live schedule whose id starts with ``prefix``
        (one client's at logout; all of them when the server stops)."""
        for sid in [s for s in self._schedules if s.startswith(prefix)]:
            proc = self._schedules.pop(sid)
            if proc.is_alive:
                proc.interrupt("ended")

    def cancel_schedule(self, client_id: str, schedule_id: str) -> bool:
        """Stop a schedule; returns False if it already ended."""
        if not schedule_id.startswith(f"sched-{client_id}-"):
            raise SecurityError(
                f"{client_id!r} does not own schedule {schedule_id!r}")
        proc = self._schedules.pop(schedule_id, None)
        if proc is None or not proc.is_alive:
            return False
        proc.interrupt("cancelled")
        return True

    def _run_schedule(self, schedule_id: str, client_id: str, app_id: str,
                      command: str, args: dict, period: float,
                      count: Optional[int]):
        from repro.sim import Interrupt
        fired = 0
        try:
            while count is None or fired < count:
                yield self.sim.timeout(period)
                try:
                    self.collab.session(client_id)
                except CollaborationError:
                    break  # client logged out
                try:
                    yield from self.submit_command(client_id, app_id,
                                                   command, args)
                except (SecurityError, LockError, OrbError) as exc:
                    # surface the failure on the poll stream and stop
                    from repro.wire import ErrorMessage
                    self.collab.push_to_client(
                        client_id,
                        ErrorMessage(0, f"schedule {schedule_id} stopped: "
                                        f"{exc}", code="SCHEDULE",
                                     app_id=app_id, client_id=client_id,
                                     msg_id=self.sim.next_id("msg")))
                    break
                fired += 1
        except Interrupt:
            pass
        finally:
            self._schedules.pop(schedule_id, None)

    # -- locks -----------------------------------------------------------
    def acquire_lock(self, client_id: str, app_id: str):
        """Generator: acquire the steering lock (relayed if remote)."""
        session = self.collab.session(client_id)  # validates
        handle = self.router.resolve(app_id)
        if not handle.is_local:  # client_logout tells the host server
            session.remote_locks.setdefault(handle.home, app_id)
        return (yield from handle.acquire_lock(client_id))

    def release_lock(self, client_id: str, app_id: str):
        """Generator: release the steering lock (relayed if remote)."""
        return (yield from self.router.resolve(app_id)
                .release_lock(client_id))

    def lock_holder(self, app_id: str):
        """Generator: current lock holder (relayed if remote)."""
        return (yield from self.router.resolve(app_id).lock_holder())

    def _on_lock_grant(self, app_id: str, client_id: str) -> None:
        msg = LockMessage("granted", holder=client_id, app_id=app_id,
                          sender=self.name, msg_id=self.sim.next_id("msg"))
        self._route_to_client(client_id, msg)

    # -- collaboration -----------------------------------------------------
    def poll_client(self, client_id: str, max_items: int = 32) -> List[Message]:
        """Drain up to ``max_items`` from the client's FIFO buffer."""
        session = self.collab.session(client_id)
        out = []
        while len(out) < max_items:
            item = session.buffer.try_get()
            if item is None:
                break
            out.append(item)
        return out

    def publish_group(self, client_id: str, app_id: str, group: str,
                      msg: Message):
        """Generator: chat/whiteboard/shared-view to a collaboration group.

        Groups "can span multiple servers" (§5.2.3): the message is fanned
        out by the application's home server, one push per remote server.
        """
        self.collab.session(client_id)
        msg.app_id = app_id
        msg.client_id = client_id
        return (yield from self.router.resolve(app_id)
                .publish_group(group, msg, exclude=client_id))

    def publish_local_group(self, app_id: str, group: str, msg: Message,
                            exclude: Optional[str] = None) -> int:
        """Home-server fan-out of a group message (local + peer pushes)."""
        count = self.collab.broadcast_group(app_id, group, msg,
                                            exclude=exclude)
        proxy = self.local_proxies.get(app_id)
        if proxy is not None:
            for peer in proxy.remote_subscribers:
                self.registry.push_group_message(peer, app_id, group, msg,
                                                 exclude=exclude or "")
        return count

    # -- archival -------------------------------------------------------------
    def replay_interactions(self, client_id: str, app_id: str,
                            since: float = 0.0,
                            limit: Optional[int] = None):
        """Generator: a client's replayable interaction history (§5.2.5)."""
        session = self.collab.session(client_id)
        return (yield from self.router.resolve(app_id)
                .replay_interactions(session.user, since, limit))

    def replay_app_log(self, client_id: str, app_id: str,
                       since: float = 0.0, limit: Optional[int] = None):
        """Generator: the application's archived history."""
        session = self.collab.session(client_id)
        return (yield from self.router.resolve(app_id)
                .replay_app_log(session.user, since, limit))

    def latecomer_catchup(self, client_id: str, app_id: str, n: int = 20):
        """Generator: recent interactions for a late group joiner."""
        session = self.collab.session(client_id)
        return (yield from self.router.resolve(app_id)
                .latecomer_catchup(session.user, n))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _local_proxy(self, app_id: str) -> ApplicationProxy:
        proxy = self.local_proxies.get(app_id)
        if proxy is None:
            raise SecurityError(f"unknown application {app_id!r}")
        return proxy

    def _route_to_client(self, client_id: str, msg: Message) -> None:
        if self.collab.owner_server(client_id) == self.name:
            self.collab.push_to_client(client_id, msg)
        else:
            self._push_remote_client(client_id, msg)

    def _push_remote_client(self, client_id: str, msg: Message) -> None:
        owner = self.collab.owner_server(client_id)
        self.registry.push_to_client(owner, client_id, msg)

    def attach_health(self, monitor: HealthMonitor) -> None:
        """Hand over the heartbeat the deployment built around this server
        (before :meth:`attach_directory`: the client keeps the monitor)."""
        self.health = monitor
        self.registry.health = monitor

    def attach_directory(self, client) -> None:
        """Wire this server to the sharded directory plane (deployment
        calls this with a per-server ``DirectoryClient``)."""
        self.directory = client

    def _withdraw_from_directory(self, app_id: str):
        try:
            yield from self.directory.withdraw_app(app_id)
        except OrbError:
            pass

    def _build_pipeline(self) -> Pipeline:
        """Assemble one plane's default interceptor chain: error envelope
        → recording (metrics, span, ledger) → security → admission →
        handler."""
        # Late import: repro.pipeline.interceptors imports this package.
        from repro.pipeline.interceptors import default_pipeline
        return default_pipeline(clock=lambda: self.sim.now,
                                metrics=self.pipeline_metrics,
                                security=self.security,
                                policies=self.policies,
                                tracer=self.tracer, server=self.name,
                                accounting=self.ledger)

    def _charge_async(self, cost: float) -> None:
        """Account CPU work without blocking the calling dispatch path."""
        if cost > 0:
            self.sim.spawn(self.host.use_cpu(cost), name="async-cpu")

    def recover(self) -> RecoveryReport:
        """Rebuild every stateful plane from the backend's snapshot +
        archive + WAL tail (a restarted server's first call, before it
        serves traffic)."""
        report = self.journal.recover()
        self.log.event("server.recovered",
                       snapshot_lsn=report.snapshot_lsn,
                       last_lsn=report.last_lsn,
                       archived=report.archived,
                       replayed=report.replayed,
                       planes=dict(report.planes))
        return report

    def metrics_registry(self):
        """This server's own snapshot surface (the ``/status`` servlet's
        data source; deployments aggregate across servers instead)."""
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        for label, source in (("pipeline", self.pipeline_metrics),
                              ("federation", self.federation_metrics),
                              ("directory", self.directory_metrics),
                              ("storage", self.storage_metrics),
                              ("health", self.health), ("log", self.log),
                              ("timeseries", self.timeseries),
                              ("costs", self.ledger)):
            if source is not None:
                registry.register(f"{label}[{self.name}]", source)
        return registry

    def stop(self) -> None:
        """Shut down every component (end of scenario, or a drill's
        "kill"): no schedule, poller or heartbeat of its runs on."""
        self._end_schedules()
        self.subscriptions.stop()
        self.health.stop()
        self.container.stop()
        self.daemon.stop()
        self.orb.shutdown()

    def shutdown(self):
        """Generator: graceful shutdown — notify subscribed peers that
        every local application stopped, withdraw this server's users from
        the central directory in one call (§6.3), then stop serving."""
        for app_id, proxy in list(self.local_proxies.items()):
            proxy.mark_stopped()
            note = ControlMessage("app_stopped", detail=app_id,
                                  app_id=app_id, sender=self.name,
                                  msg_id=self.sim.next_id("msg"))
            self.collab.broadcast_update(app_id, note)
            for peer in proxy.remote_subscribers:
                self.registry.push_update(peer, app_id, note)
            self.router.forget(app_id)
        if self.directory is not None:
            try:
                yield from self.directory.withdraw_server(self.name)
            except OrbError:
                pass  # directory down: stale entries age out on lookup
        self.stop()
