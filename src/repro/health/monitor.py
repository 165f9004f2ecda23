"""Per-server health monitor: heartbeats, folding, gossip, and queries.

One :class:`HealthMonitor` is built around each
:class:`~repro.core.server.DiscoverServer` by the deployment and attached
with ``attach_health`` (a server left alone keeps a disabled one).  It
runs a heartbeat process on the simulated clock that folds every liveness
signal the server already produces into the
:class:`~repro.health.model.HealthModel`:

- its own pipeline error rate (a tick with a high error fraction counts
  as a missed self-heartbeat),
- each local :class:`~repro.core.proxy.ApplicationProxy` (active →
  heartbeat, stopped → miss),
- peer call outcomes, booked once per call through :meth:`note_call` —
  the one liveness rule — by `PeerRegistry.call` (pings, relays, poll
  rounds, gossip alike), by `DirectoryClient` for its shard replicas,
  and by the gossip servant :meth:`exchange`,
- daemon/channel frame drops (``note_channel_failure``).

On the same tick the :class:`~repro.health.slo.SLOEngine` samples its
specs, so SLO windows advance with the heartbeat period.

Peer-health *gossip* — exchanging health views over the existing Control
network so every server converges on a fleet view — is **opt-in**
(``gossip_period=None`` by default): it sends real ORB messages, which
would perturb the golden experiment tables.  Passive observation alone
already marks dead peers unhealthy on every server that talks to them.
The heartbeat itself is pure bookkeeping: timer events only, no wire
messages, no CPU charges, no spans.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.health.model import HealthModel, STATUS_UNKNOWN
from repro.health.slo import AlertLog, SLOEngine, SLOSpec
from repro.orb import CommFailure
from repro.sim import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.server import DiscoverServer

#: default heartbeat period (sim seconds)
DEFAULT_PERIOD = 0.5
#: a tick whose pipeline error fraction exceeds this counts as a miss
DEFAULT_ERROR_DEGRADE = 0.5
#: trace exemplars attached per alert
EXEMPLAR_LIMIT = 3

#: default SLO on the request pipeline: 99.9% of requests succeed
DEFAULT_ERROR_OBJECTIVE = 0.999
#: default latency SLO: http-plane p99 stays under this (sim seconds)
DEFAULT_P99_THRESHOLD = 0.5


def default_slos(server: "DiscoverServer", engine: SLOEngine) -> None:
    """Register the standard SLOs for one server's pipeline metrics."""
    metrics = server.pipeline_metrics
    engine.add(
        SLOSpec("request_error_rate",
                kind="error_rate",
                objective=DEFAULT_ERROR_OBJECTIVE,
                description="fraction of pipeline requests that error"),
        lambda: (metrics.requests(), metrics.errors()))
    engine.add(
        SLOSpec("deliver_command_p99",
                kind="latency",
                objective=0.99,
                threshold=DEFAULT_P99_THRESHOLD,
                description="http-plane p99 latency stays under "
                            f"{DEFAULT_P99_THRESHOLD} sim-s"),
        lambda: metrics.latency_percentile("http", 99) or None)


class HealthMonitor:
    """Folds liveness signals into statuses; answers routing queries."""

    def __init__(self, server: "DiscoverServer", *,
                 period: float = DEFAULT_PERIOD,
                 gossip_period: Optional[float] = None,
                 enabled: bool = True) -> None:
        self.server = server
        self.period = period
        self.gossip_period = gossip_period
        self.enabled = enabled
        clock = lambda: server.sim.now  # noqa: E731 - tiny closure
        self.model = HealthModel(clock=clock)
        self.alerts = AlertLog()
        #: the server's time-series registry, or None: the health gauges
        #: land there
        self.timeseries = server.timeseries
        self.slos = SLOEngine(clock=clock, log=self.alerts,
                              exemplar_fn=self._exemplars)
        default_slos(server, self.slos)
        #: peer server → (stamp, statuses) from the last gossip exchange
        self._peer_views: Dict[str, Tuple[float, Dict[str, str]]] = {}
        self.counters: Dict[str, int] = {
            "heartbeats": 0, "failovers": 0, "channel_failures": 0,
            "gossip_rounds": 0, "gossip_failures": 0,
        }
        # pipeline totals at the previous tick, for per-tick deltas
        self._last_requests = 0
        self._last_errors = 0
        # statuses at the previous tick, for the transitions counter
        self._last_statuses: Dict[str, str] = {}
        self._procs: List = []
        if enabled:
            self._procs.append(server.sim.spawn(
                self._beat(), name=f"health-beat@{server.name}"))
            if gossip_period is not None:
                self._procs.append(server.sim.spawn(
                    self._gossip(), name=f"health-gossip@{server.name}"))

    # -- component keys ----------------------------------------------------
    @staticmethod
    def server_key(name: str) -> str:
        return f"server:{name}"

    @staticmethod
    def app_key(app_id: str) -> str:
        return f"app:{app_id}"

    # -- heartbeat process -------------------------------------------------
    def _beat(self):
        sim = self.server.sim
        try:
            while True:
                yield sim.timeout(self.period)
                self.tick()
        except Interrupt:
            return

    def tick(self) -> None:
        """One heartbeat: fold local signals, advance the SLO windows."""
        self.counters["heartbeats"] += 1
        self._self_heartbeat()
        for app_id, proxy in list(self.server.local_proxies.items()):
            key = self.app_key(app_id)
            if proxy.active:
                self.model.record_success(key)
            else:
                self.model.record_failure(key)
        if self.timeseries is not None:
            self._record_health_series()
        self.slos.observe()

    def _record_health_series(self) -> None:
        """Status-count gauges and a transitions counter, per tick."""
        ts = self.timeseries
        statuses = self.model.statuses()
        counts: Dict[str, int] = {}
        transitions = 0
        for key, status in statuses.items():
            counts[status] = counts.get(status, 0) + 1
            if self._last_statuses.get(key, status) != status:
                transitions += 1
        self._last_statuses = statuses
        for status, n in sorted(counts.items()):
            ts.set_gauge(f"health.status.{status}", n)
        if transitions:
            ts.inc("health.transitions", transitions)

    def _self_heartbeat(self) -> None:
        """The server's own beat, folding the pipeline error rate.

        A tick in which most pipeline requests errored is treated as a
        missed heartbeat — a server that answers every request with a
        fault is not healthy, even though it is reachable.
        """
        metrics = self.server.pipeline_metrics
        requests, errors = metrics.requests(), metrics.errors()
        d_req = requests - self._last_requests
        d_err = errors - self._last_errors
        self._last_requests, self._last_errors = requests, errors
        key = self.server_key(self.server.name)
        if d_req > 0 and (d_err / d_req) > DEFAULT_ERROR_DEGRADE:
            self.model.record_failure(key)
        else:
            self.model.record_success(key)

    # -- passive liveness (fed by federation / directory / daemon) ---------
    def note_call(self, name: str, exc: Optional[Exception] = None) -> None:
        """Book one call to peer ``name`` — the liveness rule, written once:
        a :class:`CommFailure` is a miss; no error, or any other ORB error
        (a remote exception is an *answer*), is proof of life.  A disabled
        monitor records nothing."""
        if not self.enabled:
            return
        if isinstance(exc, CommFailure):
            self.model.record_failure(self.server_key(name))
        else:
            self.model.record_success(self.server_key(name))

    def note_channel_failure(self) -> None:
        """A daemon/channel frame was dropped or malformed."""
        self.counters["channel_failures"] += 1

    def note_failover(self) -> None:
        self.counters["failovers"] += 1

    # -- gossip ------------------------------------------------------------
    def _gossip(self):
        sim = self.server.sim
        registry = self.server.registry
        try:
            while True:
                yield sim.timeout(self.gossip_period)
                for peer in registry.known_peers():
                    self.counters["gossip_rounds"] += 1
                    view = yield from registry.exchange_health(
                        peer, self.local_view())
                    if view is None:
                        self.counters["gossip_failures"] += 1
                    else:
                        self.merge_peer_view(peer, view)
        except Interrupt:
            return

    def local_view(self) -> dict:
        """This server's health view, as shared with gossip peers."""
        return {"server": self.server.name,
                "time": self.server.sim.now,
                "statuses": self.model.statuses()}

    def merge_peer_view(self, peer: str, view: dict) -> None:
        stamp = float(view.get("time", self.server.sim.now))
        prev = self._peer_views.get(peer)
        if prev is None or stamp >= prev[0]:
            self._peer_views[peer] = (stamp, dict(view.get("statuses", ())))

    def exchange(self, peer: str, view: dict) -> dict:
        """Servant entry point: a peer pushed its view; answer with ours.

        Receiving gossip from a peer is itself proof of its liveness.
        """
        self.merge_peer_view(peer, view)
        self.note_call(peer)
        return self.local_view()

    def fleet_view(self) -> Dict[str, str]:
        """Eventually-consistent statuses across the fleet.

        Peer-gossiped views are merged oldest-stamp first; components this
        server has observed directly always win (its own observation of a
        dead peer beats the peer's last optimistic self-report).
        """
        merged: Dict[str, str] = {}
        for _peer, (_stamp, statuses) in sorted(
                self._peer_views.items(), key=lambda kv: kv[1][0]):
            merged.update(statuses)
        merged.update(self.model.statuses())
        return merged

    # -- routing queries ---------------------------------------------------
    def status_of(self, key: str) -> str:
        if not self.enabled:
            return STATUS_UNKNOWN
        return self.model.status_of(key)

    def is_unhealthy_peer(self, name: str) -> bool:
        """Routing predicate: should calls to this peer be avoided?"""
        return self.enabled and self.model.is_unhealthy(
            self.server_key(name))

    def detection_latency(self, name: str, since: float) -> Optional[float]:
        """Sim seconds from ``since`` until peer ``name`` was detected down."""
        return self.model.detection_latency(self.server_key(name), since)

    # -- exemplars ---------------------------------------------------------
    def _exemplars(self, window_start: float) -> List[int]:
        """Trace ids of the worst error spans since ``window_start``."""
        worst = sorted(self.server.tracer.store.errors_since(window_start),
                       key=lambda row: (-row[1], row[0]))
        out: List[int] = []
        for trace_id, _duration in worst:
            if trace_id not in out:
                out.append(trace_id)
            if len(out) >= EXEMPLAR_LIMIT:
                break
        return out

    # -- reporting ---------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain-dict reduction for the metrics registry / status surface."""
        out = dict(self.model.snapshot())
        out["slo"] = self.slos.snapshot()
        out["counters"] = dict(self.counters)
        return out

    def stop(self) -> None:
        """Interrupt the heartbeat/gossip processes (server shutdown)."""
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("health stopped")
        self._procs.clear()
