"""Fleet-scale deployment + the E11 directory workload.

E1–E10 deploy the paper's literal shape (a few campus domains, full WAN
mesh).  A full mesh is O(n²) links — useless at fleet scale — so
:func:`build_fleet` wires N lean DISCOVER servers and M directory shard
hosts in a star through one backbone host (``core``): any server reaches
any shard in two WAN half-hops, the modern
many-services-behind-a-backbone shape.  Servers skip naming/trader
bootstrap entirely: at this scale *the sharded directory plane is* the
discovery mechanism, which is exactly what E11 measures.

:func:`run_fleet_directory` drives 10⁵+ simulated client sessions from a
declarative :class:`~repro.bench.traffic.TrafficSpec` through real
``DiscoverServer.client_login`` / ``DirectoryClient.locate_app`` /
``client_logout`` calls and reports per-shard load flatness and
fleet-wide lookup latency percentiles — the two quantities the
acceptance story cares about (flat shards, p99 independent of fleet
size).  An optional ``kill_shard_at`` crashes one replica mid-run to
drill read failover.

:func:`run_noisy_neighbor_drill` is E14: one principal floods the shared
directory plane of a 50-server fleet while the cost-attribution ledger
(one shared :class:`~repro.obs.RequestCostLedger`) keeps exact
per-principal books — the drill asserts the per-principal cost vectors
partition the global totals bit-for-bit and that the flooder tops every
flood dimension's per-bucket rate within one time-series bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.bench.faults import LoseShard, inject
from repro.bench.scenarios import pipeline_counters
from repro.bench.traffic import TrafficSpec, constant, exponential, session_plans
from repro.bench.workload import run_process
from repro.core.server import DiscoverServer
from repro.directory import DirectoryPlane, make_app_id
from repro.health import HealthMonitor
from repro.metrics import StorageMetrics
from repro.metrics.stats import Reservoir
from repro.net import Network
from repro.net.costs import CostModel, LinkSpec
from repro.obs import RequestCostLedger, TimeSeriesRegistry
from repro.orb import Orb, OrbError
from repro.pipeline.interceptors import default_pipeline
from repro.sim import Simulator
from repro.sim.rng import DeterministicRNG
from repro.storage import MemoryBackend, StateJournal


@dataclass
class Fleet:
    """A star-backbone deployment of servers plus the directory plane."""

    sim: Simulator
    net: Network
    servers: List[DiscoverServer]
    plane: DirectoryPlane
    #: one ledger shared by every server, shard pipeline and the network
    ledger: RequestCostLedger

    def __post_init__(self) -> None:
        self.by_name: Dict[str, DiscoverServer] = {
            s.name: s for s in self.servers}

    def stop(self) -> None:
        for server in self.servers:
            server.stop()


def build_fleet(n_servers: int, *, directory_shards: int = 4,
                directory_replicas: int = 2,
                spec: Optional[LinkSpec] = None,
                cost_model: Optional[CostModel] = None,
                peer_call_timeout: float = 3.0,
                health_period: float = 5.0) -> Fleet:
    """N servers + M shard hosts in a star through a ``core`` backbone.

    Each edge link carries half the WAN latency, so any server-to-shard
    path costs one WAN RTT — uniform by construction, which keeps the
    fleet-size comparison about the *directory plane*, not topology
    luck.

    The fleet's composition root (the other is ``build_collaboratory``):
    each server is handed a time-series registry and an in-memory journal
    of its own, a slow heartbeat and no tracer — at 10⁵ sessions spans
    and fast ticks would dominate the wall clock.  One shared
    :class:`~repro.obs.RequestCostLedger` spans the fleet: every server,
    every shard ORB pipeline, and the network's per-hop byte accounting
    attribute into the same instance (zero-event bookkeeping — E11's
    numbers are untouched).
    """
    if n_servers < 2:
        raise ValueError("a fleet needs at least 2 servers")
    sim = Simulator()
    spec = spec or LinkSpec()
    costs = cost_model or CostModel()
    net = Network(sim)
    ledger = RequestCostLedger(sim)
    net.trace.ledger = ledger
    half_wan = spec.wan_latency / 2
    net.add_host("core")
    plane = DirectoryPlane(replicas=directory_replicas)
    for i in range(directory_shards):
        host = net.add_host(f"dir{i}")
        net.add_link("core", host.name, half_wan, spec.wan_bandwidth,
                     kind="wan")
        # shard ORBs are bare (no DiscoverServer), so they get an
        # accounting-only pipeline — directory reads are where a noisy
        # principal's load lands, exactly what E14 must attribute
        shard_pipeline = default_pipeline(
            clock=lambda: sim.now, server=host.name, accounting=ledger)
        plane.add_shard(host.name, Orb(host, cost_model=costs,
                                       pipeline=shard_pipeline))
    servers: List[DiscoverServer] = []
    for i in range(n_servers):
        host = net.add_host(f"s{i}")
        net.add_link("core", host.name, half_wan, spec.wan_bandwidth,
                     kind="wan")
        timeseries = TimeSeriesRegistry(clock=lambda: sim.now)
        journal = StateJournal(
            MemoryBackend(), clock=lambda: sim.now,
            metrics=StorageMetrics(timeseries, ledger))
        server = DiscoverServer(
            host, cost_model=costs, peer_call_timeout=peer_call_timeout,
            ledger=ledger, timeseries=timeseries, journal=journal)
        server.attach_health(HealthMonitor(server, period=health_period))
        server.attach_directory(plane.client_for(server))
        servers.append(server)
    return Fleet(sim=sim, net=net, servers=servers, plane=plane,
                 ledger=ledger)


@dataclass
class Population:
    """The synthetic app/user universe published to the directory."""

    users: List[str]
    app_ids: List[str]
    #: app_id → home server name (ground truth for locate assertions)
    homes: Dict[str, str]


#: how many users each published application's ACL lists
USERS_PER_APP = 6


def publish_population(fleet: Fleet, *, n_apps: int, n_users: int,
                       rng: Optional[DeterministicRNG] = None) -> Population:
    """Generator: publish a synthetic app population through the plane.

    Apps are homed round-robin across the fleet; every user is written
    into (at least) two apps with *distinct* homes, so any login finds a
    remote listing whatever edge server the session lands on.  ACLs are
    registered in the home server's SecurityManager and published through
    its ``DirectoryClient`` — the same write path real registration uses.
    """
    rng = rng or DeterministicRNG(0, "population")
    acl_rng = rng.child("acls")
    priv_rng = rng.child("privs")
    users = [f"u{j}" for j in range(n_users)]
    servers = fleet.servers
    app_ids: List[str] = []
    homes: Dict[str, str] = {}
    acls: Dict[str, Dict[str, str]] = {}
    for i in range(n_apps):
        home = servers[i % len(servers)]
        app_id = make_app_id(home.name, i // len(servers))
        app_ids.append(app_id)
        homes[app_id] = home.name
        acls[app_id] = {}
    # guaranteed memberships: user j joins apps j%A and (j+1)%A — homed
    # round-robin, so consecutive apps live on different servers
    for j, user in enumerate(users):
        acls[app_ids[j % n_apps]][user] = "write"
        acls[app_ids[(j + 1) % n_apps]][user] = "read"
    for app_id in app_ids:
        acl = acls[app_id]
        while len(acl) < min(USERS_PER_APP, n_users):
            user = acl_rng.choice(users)
            if user not in acl:
                acl[user] = "write" if priv_rng.uniform() < 0.3 else "read"
    for app_id in app_ids:
        home = fleet.by_name[homes[app_id]]
        home.security.register_app_acl(app_id, acls[app_id])
        yield from home.directory.publish_app(
            app_id, home.name, f"sim-{app_id}", acls[app_id])
    return Population(users=users, app_ids=app_ids, homes=homes)


def _session(server: DiscoverServer, plan, homes: Dict[str, str],
             counters: Dict[str, int]):
    """One scripted client visit: login → N locates → logout."""
    try:
        client_id = yield from server.client_login(plan.user)
    except Exception:
        counters["failed"] += 1
        return
    try:
        for app_id, think in zip(plan.apps, plan.thinks):
            if think > 0:
                yield server.sim.timeout(think)
            try:
                home = yield from server.directory.locate_app(app_id)
            except OrbError:
                counters["lookup_errors"] += 1
                continue
            if home != homes.get(app_id):
                counters["misses"] += 1
        server.client_logout(client_id)
        counters["done"] += 1
    except Exception:
        counters["failed"] += 1


@dataclass
class _SessionLoad:
    """The E11 session mix in flight on a fleet (see :func:`_drive_sessions`)."""

    sim: Simulator
    population: Population
    rng: DeterministicRNG
    spec: TrafficSpec
    counters: Dict[str, int]
    #: sim time the driver (and anything the caller spawns next) starts at
    t0: float

    @property
    def deadline(self) -> float:
        return self.t0 + self.spec.duration + 120.0

    def wait(self) -> None:
        """Run until every session ended (or the deadline passed)."""
        sim, counters = self.sim, self.counters
        while (counters["done"] + counters["failed"]
               < self.spec.total_sessions and sim.now < self.deadline):
            sim.run(until=min(sim.now + 10.0, self.deadline))


def _drive_sessions(fleet: Fleet, tag: str, *, n_apps: int, n_users: int,
                    n_sessions: int, duration: float, seed: int,
                    traffic: Optional[TrafficSpec] = None) -> _SessionLoad:
    """The body E11 and E14 share: publish the population, then start the
    open-loop session driver.

    The default mix is uniform over apps: the ring flattens *keyspace*,
    not popularity — a zipf mix (via ``traffic=``) shows hot-app skew
    concentrating on single shards, a finding EXPERIMENTS records.
    Nothing past the publish has run when this returns, so processes the
    caller spawns next (the fault injector, a flooder) also start at ``t0``.
    """
    sim = fleet.sim
    rng = DeterministicRNG(seed, tag)
    population = run_process(
        sim, publish_population(fleet, n_apps=n_apps, n_users=n_users,
                                rng=rng), name="publish-population")
    spec = traffic or TrafficSpec(
        total_sessions=n_sessions, duration=duration,
        ops_per_session=constant(2), think_time=exponential(0.1),
        app_mix="uniform", seed=seed)
    counters = {"done": 0, "failed": 0, "misses": 0, "lookup_errors": 0}
    server_names = [s.name for s in fleet.servers]

    def driver():
        for gap, plan in session_plans(spec, population.users,
                                       population.app_ids, server_names,
                                       rng=rng.child("traffic")):
            if gap > 0:
                yield sim.timeout(gap)
            sim.spawn(_session(fleet.by_name[plan.edge], plan,
                               population.homes, counters),
                      name=f"{tag}-session")

    sim.spawn(driver(), name=f"{tag}-driver")
    return _SessionLoad(sim, population, rng, spec, counters, sim.now)


def run_fleet_directory(n_servers: int = 50, *, n_sessions: int = 20_000,
                        directory_shards: int = 8,
                        directory_replicas: int = 2,
                        n_apps: Optional[int] = None,
                        n_users: Optional[int] = None,
                        traffic: Optional[TrafficSpec] = None,
                        kill_shard_at: Optional[float] = None,
                        seed: int = 0) -> dict:
    """E11: fleet-scale sharded-directory workload; returns one table row.

    The run lasts whatever keeps each shard near ~50% CPU (≈6 ms of
    modeled ORB dispatch per read, ~3 reads per session), so scaling
    ``n_sessions`` or the fleet never silently saturates the plane —
    saturation is a *finding* (pass a denser ``traffic=``).  With
    ``kill_shard_at`` the first ring node is lost at that offset
    (:class:`~repro.bench.faults.LoseShard`) and the run doubles as the
    failover drill.
    """
    n_apps = n_apps or max(8, 4 * n_servers)
    n_users = n_users or max(100, n_sessions // 20)
    # per-shard read rate ≈ 3 * n_sessions / duration / shards;
    # hold it near 80/s (≈50% of one modeled shard CPU)
    duration = max(20.0, 3.0 * n_sessions / (80.0 * directory_shards))
    fleet = build_fleet(n_servers, directory_shards=directory_shards,
                        directory_replicas=directory_replicas)
    sim = fleet.sim
    load = _drive_sessions(fleet, "e11", n_apps=n_apps, n_users=n_users,
                           n_sessions=n_sessions, duration=duration,
                           seed=seed, traffic=traffic)
    publish_loads = dict(fleet.plane.per_shard_load())
    if kill_shard_at is not None:
        inject(fleet, (LoseShard(fleet.plane.ring.nodes[0], kill_shard_at),))
    load.wait()
    counters = load.counters

    # fleet-wide read latency: merge every server's reservoir — exact
    # count/mean/min/max composition, traffic-weighted sample retention
    # (Reservoir.merge), so the fleet tail isn't lost to concatenation
    merged = Reservoir()
    for server in fleet.servers:
        merged.merge(server.directory_metrics.read_reservoir())
    reads = merged.count
    stats = merged.stats().scaled(1e3)

    # per-shard load flatness over the *traffic* phase only (publishing
    # is write-through: every replica sees every write by design)
    loads = {shard: count - publish_loads.get(shard, 0)
             for shard, count in
             fleet.plane.per_shard_load(live_only=True).items()}
    mean_load = (sum(loads.values()) / len(loads)) if loads else 0.0
    flatness = (max(loads.values()) / mean_load) if mean_load else 0.0

    row = {
        "n_servers": n_servers,
        "n_shards": directory_shards,
        "n_replicas": directory_replicas,
        "n_apps": n_apps,
        "n_users": n_users,
        "sessions": load.spec.total_sessions,
        "sessions_done": counters["done"],
        "sessions_failed": counters["failed"],
        "locate_misses": counters["misses"],
        "lookup_errors": counters["lookup_errors"],
        "dir_reads": reads,
        "lookup_mean_ms": round(stats.mean, 3),
        "lookup_p50_ms": round(stats.p50, 3),
        "lookup_p99_ms": round(stats.p99, 3),
        "shard_load_max_over_mean": round(flatness, 3),
        "ring_epoch": fleet.plane.ring.epoch,
        "virtual_duration_s": round(sim.now - load.t0, 1),
    }
    row.update(pipeline_counters(fleet.servers))
    fleet.stop()
    return row


#: dimensions the E14 flooder must dominate (its lookups land on the shard
#: pipelines and the WAN star; its junk frames land on the drop path)
FLOOD_DIMS = ("requests", "events", "cpu_us", "wan_bytes",
              "dropped_frames", "dropped_bytes")

#: an unbound backbone port the flooder sprays junk at (discard, RFC 863)
_NOISE_PORT = 9


def _flood_lookup(server: DiscoverServer, app_id: str,
                  counters: Dict[str, int]):
    try:
        yield from server.directory.locate_app(app_id)
        counters["flood_lookups"] += 1
    except OrbError:
        counters["flood_errors"] += 1


def _top_rate(before, reading, dim: str) -> Optional[str]:
    """The principal whose ``dim`` grew most between two readings of the
    ledger's per-principal partition (ties by name, like the ledger's own
    ranking), or ``None`` when nobody's grew."""
    rates = {who: getattr(vec, dim) - getattr(before.get(who), dim, 0)
             for who, vec in reading.items()}
    top = min(rates, key=lambda who: (-rates[who], who))
    return top if rates[top] > 0 else None


def run_noisy_neighbor_drill(n_servers: int = 50, *,
                             n_sessions: int = 2_000,
                             directory_shards: int = 8,
                             duration: float = 60.0,
                             flood_start: float = 15.0,
                             flood_rate: float = 200.0,
                             bucket_width: float = 0.25,
                             seed: int = 0,
                             profiler=None) -> Tuple[dict, Fleet]:
    """E14: one principal floods the fleet; the ledger must name it.

    Background load is the E11 session mix spread evenly over the fleet.
    At ``flood_start`` the *last* server (chosen so the ranking's
    tie-break can never hand it the top slot for free — ties rank
    lexicographically and every other principal sorts first) starts
    hammering the shared directory plane at ``flood_rate`` lookups/s and
    spraying junk frames at an unbound backbone port, so the
    dropped-traffic dimensions have a heavy hitter too.  A monitor
    process reads the ledger's exact per-principal partition every
    ``bucket_width`` and records, per dimension, how long the flooder
    took to top the *per-bucket rate* — the difference of two consecutive
    readings.  (Cumulative totals name it later: the background
    principals' head start has to be outrun first.)

    The returned row carries the drill's three acceptance facts:

    - ``partition_exact`` — the per-principal cost vectors sum to the
      ledger's global totals **bit-for-bit** (integer arithmetic, every
      cost attributed to exactly one entry).
    - ``flooder_top_all_dims`` — the flooder is the top heavy hitter in
      every :data:`FLOOD_DIMS` dimension by the end of the run.
    - ``detection_latency_s`` — per-dimension time from flood start to
      the flooder topping that dimension's per-bucket rate; the E14
      acceptance bound is one monitor sampling period (``bucket_width``).

    ``profiler`` (a :class:`~repro.obs.DispatchProfiler`) is installed on
    the kernel for the whole drill when given — the CI artifact path.

    Returns ``(row, fleet)`` — the live fleet so callers (the costs CLI,
    the cost gate) can read ``fleet.ledger`` before stopping it, like
    the other drill scenarios.
    """
    fleet = build_fleet(n_servers, directory_shards=directory_shards,
                        directory_replicas=2)
    sim, ledger = fleet.sim, fleet.ledger
    if profiler is not None:
        profiler.install(sim)
    load = _drive_sessions(fleet, "e14", n_apps=max(8, 2 * n_servers),
                           n_users=max(50, n_sessions // 10),
                           n_sessions=n_sessions, duration=duration,
                           seed=seed)
    population, counters, t0 = load.population, load.counters, load.t0
    counters.update(flood_lookups=0, flood_errors=0, flood_noise_frames=0)
    flooder = fleet.servers[-1]
    flood_t: Dict[str, float] = {}

    def flood():
        yield sim.timeout(flood_start)
        flood_t["start"] = sim.now
        noise = flooder.host.bind(45_999)
        app_rng = load.rng.child("flood")
        gap = 1.0 / flood_rate
        k = 0
        while sim.now < t0 + duration:
            sim.spawn(_flood_lookup(flooder,
                                    app_rng.choice(population.app_ids),
                                    counters),
                      name="e14-flood")
            if k % 4 == 0:
                noise.send("core", _NOISE_PORT, {"noise": k},
                           channel="flood")
                counters["flood_noise_frames"] += 1
            k += 1
            yield sim.timeout(gap)
        noise.close()

    detection: Dict[str, float] = {}

    def monitor():
        yield sim.timeout(flood_start)
        before = None
        while (sim.now < t0 + duration + 10.0
               and len(detection) < len(FLOOD_DIMS)):
            reading = ledger.partition_by("principal")
            if before is not None:
                for dim in FLOOD_DIMS:
                    if (dim not in detection
                            and _top_rate(before, reading, dim)
                            == flooder.name):
                        detection[dim] = round(sim.now - flood_t["start"], 6)
            before = reading
            yield sim.timeout(bucket_width)

    sim.spawn(flood(), name="e14-flooder")
    sim.spawn(monitor(), name="e14-monitor")
    load.wait()
    sim.run(until=min(sim.now + 5.0, load.deadline + 5.0))  # drain flood tail
    if profiler is not None:
        profiler.uninstall()

    # -- the books --------------------------------------------------------
    totals = ledger.total.as_dict()
    partition = {principal: vec.as_dict() for principal, vec
                 in ledger.partition_by("principal").items()}
    summed = {dim: 0 for dim in totals}
    for vec in partition.values():
        for dim, value in vec.items():
            summed[dim] += value
    partition_exact = summed == totals

    flooder_vec = partition.get(flooder.name, {})
    flooder_top = {dim: (lambda top: bool(top)
                         and top[0][0] == flooder.name)(ledger.top(dim, 1))
                   for dim in FLOOD_DIMS}
    row = {
        "n_servers": n_servers,
        "n_shards": directory_shards,
        "sessions": n_sessions,
        "sessions_done": counters["done"],
        "sessions_failed": counters["failed"],
        "lookup_errors": counters["lookup_errors"],
        "flooder": flooder.name,
        "flood_lookups": counters["flood_lookups"],
        "flood_errors": counters["flood_errors"],
        "flood_noise_frames": counters["flood_noise_frames"],
        "partition_exact": partition_exact,
        "principals": len(partition),
        "flooder_top_all_dims": all(flooder_top.values()),
        "flooder_top_dims": sum(flooder_top.values()),
        # by-dim dict; NOT "detection_latency_s" (the health footer's
        # scalar key from E10) so report footers format cleanly
        "detection_latency_by_dim_s": {dim: detection.get(dim)
                                       for dim in FLOOD_DIMS},
        "detection_latency_max_s": (max(detection.values())
                                    if len(detection) == len(FLOOD_DIMS)
                                    else None),
        "bucket_width_s": bucket_width,
        "flooder_requests": flooder_vec.get("requests", 0),
        "flooder_cpu_us": flooder_vec.get("cpu_us", 0),
        "flooder_wan_bytes": flooder_vec.get("wan_bytes", 0),
        "flooder_dropped_frames": flooder_vec.get("dropped_frames", 0),
        "virtual_duration_s": round(sim.now - t0, 1),
    }
    row.update(pipeline_counters(fleet.servers))
    return row, fleet
