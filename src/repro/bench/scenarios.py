"""End-to-end scenario runners — one per experiment family.

Every runner assembles a fresh deployment, drives a workload for a stretch
of *virtual* time, and returns a plain dict of measured quantities (one
table row; a list where one simulation yields several).  The parameter
sets each experiment runs them at, and the facts its rows must satisfy,
are :data:`repro.bench.experiments.EXPERIMENTS`; what the runs cost the
host is ``perf/``'s to time.
"""

from __future__ import annotations

from typing import Optional

from repro.apps import SyntheticApp
from repro.bench.faults import Kill, Restart, inject
from repro.bench.report import FOOTER_GROUPS
from repro.bench.workload import (
    INTERACTIVE_APP,
    make_app_farm,
    polling_client,
    resilient_steering_client,
    run_process,
    steering_client,
    update_watching_client,
)
from repro.client import DiscoverPortal
from repro.core.deployment import build_collaboratory, build_single_server
from repro.core.server import SERVICE_ID
from repro.metrics import LatencyRecorder
from repro.net import Network
from repro.net.costs import CostModel, LinkSpec
from repro.orb import Orb
from repro.pipeline.core import PLANE_CHANNEL, PLANE_HTTP, PLANE_ORB
from repro.sim import Simulator
from repro.wire import CommandMessage, ResponseMessage


#: footer group → the server collector its row keys are summed from
_COLLECTORS = {"federation": "federation_metrics",
               "directory": "directory_metrics",
               "storage": "storage_metrics"}
#: row key → collector counter(s), where not the footer's shown name
_COUNTERS = {
    "fed_invalidations": ("app_invalidations", "peer_invalidations"),
    "fed_discovery_skipped": ("discovery_skipped",),
    "dir_stale_retries": ("stale_epoch_retries",),
    "dir_stub_hits": ("stub_cache_hits",),
    "dir_stub_misses": ("stub_cache_misses",),
    "storage_appends": ("wal_appends",),
    "storage_compacted": ("records_compacted",),
    "storage_replayed": ("records_replayed",),
}
#: the order a row lists the footer groups in
_ROW_ORDER = ("pipeline", *_COLLECTORS, "health", "obs", "costs")


def pipeline_counters(servers, tracer=None) -> dict:
    """Sum the counters of ``servers`` into the extra row keys every
    scenario reports: exactly the row keys of
    :data:`repro.bench.report.FOOTER_GROUPS` — pipeline requests by
    plane, federation subscriptions and invalidations, the health plane's
    status counts, alerts and failovers, the directory clients' totals,
    the storage journal's, the structured log's retained / ring-dropped
    records (so overflow is visible, not silent), the size of the
    time-series registries, the cost ledger's totals and distinct rollup
    keys — plus ``cost_top_principal``, the heaviest requester.  A ledger
    shared by several servers counts once, and a server handed no ledger
    or no time-series registry adds nothing there.  Passing the
    deployment's tracer adds the span-store totals (``spans_recorded``,
    ``traces_recorded``, ``spans_dropped``)."""
    row = dict.fromkeys((key for label in _ROW_ORDER
                         for _name, key in FOOTER_GROUPS[label]), 0)
    ledgers: dict = {}  # id → ledger: shared deployment ledgers count once
    for server in servers:
        metrics = server.pipeline_metrics
        row["http_requests"] += metrics.requests(PLANE_HTTP)
        row["orb_requests"] += metrics.requests(PLANE_ORB)
        row["channel_requests"] += metrics.requests(PLANE_CHANNEL)
        row["pipeline_errors"] += metrics.errors()
        row["sessions_expired"] += server.container.sessions_expired
        for label, attr in _COLLECTORS.items():
            collector = getattr(server, attr)
            for name, key in FOOTER_GROUPS[label]:
                row[key] += sum(map(collector.get,
                                    _COUNTERS.get(key, (name,))))
        health = server.health
        for status, n in health.model.status_counts().items():
            row[f"health_{status}"] += n
        alert_snap = health.alerts.snapshot()
        row["alerts_fired"] += alert_snap["fired"]
        row["alerts_resolved"] += alert_snap["resolved"]
        row["health_failovers"] += health.counters["failovers"]
        row["log_records"] += len(server.log)
        row["log_dropped"] += server.log.dropped
        if server.timeseries is not None:
            ts_snap = server.timeseries.snapshot()
            row["ts_series"] += ts_snap["series"]
            row["ts_points"] += ts_snap["points"]
        if server.ledger is not None:
            ledgers[id(server.ledger)] = server.ledger
    row["cost_top_principal"] = "-"
    top_requests = -1
    for ledger in ledgers.values():
        totals = ledger.total.as_dict()
        for dim, key in FOOTER_GROUPS["costs"]:
            row[key] += (len(ledger.entries) if key == "cost_entries"
                         else totals[dim])
        for principal, count, _err in ledger.top("requests", 1):
            if count > top_requests:
                row["cost_top_principal"], top_requests = principal, count
    if tracer is not None:
        row["spans_recorded"] = len(tracer.store)
        row["traces_recorded"] = tracer.store.trace_count()
        row["spans_dropped"] = tracer.store.dropped
    return row


def _single_server_with_app(*, update_period: float = 0.5, **server):
    """One server (``server`` goes to :func:`build_single_server`) with
    one registered application the ``bench`` user may steer:
    ``(collab, app_id)``."""
    collab = build_single_server(**server)
    collab.run_bootstrap()
    (app,) = make_app_farm(collab, 1, user="bench",
                           update_period=update_period)
    collab.sim.run(until=collab.sim.now + 2.0)  # app registers
    return collab, app.app_id


def run_app_scalability(n_apps: int, *, duration: float = 30.0,
                        update_period: float = 0.5,
                        cost_model: Optional[CostModel] = None,
                        accounting_enabled: bool = True,
                        profiler=None) -> dict:
    """E1: one server, ``n_apps`` applications pushing updates.

    Returns the server-side update-processing lag; the knee past which the
    mean lag grows with offered load marks the capacity the paper reports
    as ">40 simultaneous applications".  ``accounting_enabled=False``
    turns the cost ledger off (the parity tests' control arm; ``perf/``
    prices the planes with ``app_updates_bare``).  ``profiler`` (a
    :class:`repro.obs.DispatchProfiler`) is installed on the kernel for
    the run; an untagged profiler inherits the deployment's tracer so
    samples carry plane/operation span names.
    """
    collab = build_collaboratory(1,
                                 apps_hosts_per_domain=max(4, n_apps // 4),
                                 cost_model=cost_model,
                                 accounting_enabled=accounting_enabled)
    collab.run_bootstrap()
    server = collab.server_of(0)
    recorder = LatencyRecorder(collab.sim)
    server.recorder = recorder
    make_app_farm(collab, n_apps, update_period=update_period)
    if profiler is not None:
        profiler.tracer = collab.tracer
        profiler.install(collab.sim)
    collab.sim.run(until=collab.sim.now + duration)
    if profiler is not None:
        profiler.uninstall()
    stats = recorder.stats("update_lag")
    offered = n_apps / update_period
    return {
        "n_apps": n_apps,
        "offered_updates_per_s": offered,
        "mean_lag_ms": stats.mean * 1e3,
        "p90_lag_ms": stats.p90 * 1e3,
        "max_lag_ms": stats.maximum * 1e3,
        "updates_processed": stats.count,
        "throughput_per_s": stats.count / duration,
        # saturated = the server can no longer keep update lag below one
        # update period (work arrives faster than it drains)
        "saturated": stats.mean > update_period,
        **pipeline_counters(collab.servers.values(),
                            tracer=collab.tracer),
    }


def run_client_scalability(n_clients: int, *, duration: float = 30.0,
                           poll_interval: float = 0.25,
                           cost_model: Optional[CostModel] = None,
                           server_cpus: int = 1) -> dict:
    """E2: one server, one application, ``n_clients`` polling clients.

    Returns client-visible poll round-trip stats; degradation past ~20
    clients reproduces §6.1's client limit.  ``server_cpus`` supports the
    vertical-scaling ablation A6.
    """
    collab, app_id = _single_server_with_app(
        client_hosts=max(4, n_clients // 4), cost_model=cost_model,
        server_cpus=server_cpus)
    recorder = LatencyRecorder(collab.sim)
    for _ in range(n_clients):
        portal = collab.add_portal(0)
        collab.sim.spawn(polling_client(
            portal, app_id, user="bench", duration=duration,
            poll_interval=poll_interval, recorder=recorder, warmup=2.0))
    collab.sim.run(until=collab.sim.now + duration + 1.0)
    stats = recorder.stats("poll_rtt")
    return {
        "n_clients": n_clients,
        "server_cpus": server_cpus,
        "mean_rtt_ms": stats.mean * 1e3,
        "p90_rtt_ms": stats.p90 * 1e3,
        "p99_rtt_ms": stats.p99 * 1e3,
        "polls": stats.count,
        **pipeline_counters(collab.servers.values(),
                            tracer=collab.tracer),
    }


def run_collab_scenario(*, mode: str, n_domains: int = 3,
                        clients_per_domain: int = 4,
                        duration: float = 20.0,
                        wan_latency: float = 0.030,
                        poll_interval: float = 0.25,
                        update_period: float = 0.5,
                        payload_floats: int = 64) -> dict:
    """E4/E5: a collaboration group spanning domains — P2P vs centralized.

    ``mode="p2p"``: each client polls its *local* server; updates cross the
    WAN once per remote server.  ``mode="central"``: every client polls the
    application's home server directly over the WAN (the pre-middleware
    deployment), so each update crosses the WAN once per remote client.
    Returns WAN traffic totals and client update latency.
    """
    if mode not in ("p2p", "central"):
        raise ValueError(f"unknown mode {mode!r}")
    spec = LinkSpec(wan_latency=wan_latency)
    collab = build_collaboratory(
        n_domains, apps_hosts_per_domain=1,
        client_hosts_per_domain=clients_per_domain, spec=spec)
    collab.run_bootstrap()
    apps = make_app_farm(collab, 1, domain_index=0, user="bench",
                         update_period=update_period,
                         payload_floats=payload_floats)
    collab.sim.run(until=collab.sim.now + 2.0)
    app_id = apps[0].app_id
    home_server = collab.domains[0].server.name

    recorder = LatencyRecorder(collab.sim)
    for d in range(n_domains):
        for c in range(clients_per_domain):
            host = collab.domains[d].client_hosts[
                c % len(collab.domains[d].client_hosts)]
            target = (home_server if mode == "central"
                      else collab.domains[d].server.name)
            portal = DiscoverPortal(host, target)
            collab.portals.append(portal)
            collab.sim.spawn(update_watching_client(
                portal, app_id, user="bench", duration=duration,
                poll_interval=poll_interval, recorder=recorder))
    collab.net.trace.reset()
    collab.sim.run(until=collab.sim.now + duration + 1.0)
    stats = recorder.stats("update_latency")
    trace = collab.net.trace
    return {
        "mode": mode,
        "n_domains": n_domains,
        "clients": n_domains * clients_per_domain,
        "wan_latency_ms": wan_latency * 1e3,
        "wan_messages": trace.wan_messages,
        "wan_bytes": trace.wan_bytes,
        "lan_messages": trace.lan_messages,
        "mean_update_latency_ms": stats.mean * 1e3,
        "p90_update_latency_ms": stats.p90 * 1e3,
        "updates_seen": stats.count,
        **pipeline_counters(collab.servers.values(),
                            tracer=collab.tracer),
    }


def run_remote_vs_local(*, remote: bool, duration: float = 20.0,
                        command_interval: float = 0.5,
                        wan_latency: float = 0.030) -> dict:
    """E6: steer an application homed locally vs one CORBA hop away."""
    spec = LinkSpec(wan_latency=wan_latency)
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1, spec=spec)
    collab.run_bootstrap()
    app = collab.add_app(1, SyntheticApp, "steer-target",
                         acl={"bench": "write"}, config=INTERACTIVE_APP)
    collab.sim.run(until=collab.sim.now + 2.0)
    app_id = app.app_id
    # local client sits in the app's domain; remote client one WAN hop away
    portal = collab.add_portal(1 if not remote else 0)
    recorder = LatencyRecorder(collab.sim)
    collab.sim.spawn(steering_client(
        portal, app_id, user="bench", duration=duration,
        command_interval=command_interval, recorder=recorder,
        poll_interval=0.02))
    collab.sim.run(until=collab.sim.now + duration + 2.0)
    stats = recorder.stats("steer_rtt")
    return {
        "placement": "remote" if remote else "local",
        "wan_latency_ms": wan_latency * 1e3,
        "mean_steer_rtt_ms": stats.mean * 1e3,
        "p90_steer_rtt_ms": stats.p90 * 1e3,
        "commands": stats.count,
        "throughput_per_s": stats.count / duration,
        **pipeline_counters(collab.servers.values(),
                            tracer=collab.tracer),
    }


class _Echo:
    def echo(self, x):
        return x


def _two_hosts(latency: float):
    """Hosts ``a`` and ``b`` one link apart: ``(sim, net)``."""
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency)
    return sim, net


def _echo_orb(latency: float):
    """An ORB on each of :func:`_two_hosts` and a reference to an echo
    servant on ``b``: ``(sim, a's orb, ref)``."""
    sim, net = _two_hosts(latency)
    orb = Orb(net.hosts["a"])
    return sim, orb, Orb(net.hosts["b"]).activate(_Echo(), key="echo")


#: E3: concurrent callers that saturate one ORB server
CORBA_CALLERS = 8
#: E7: probes of each discovery path per deployment
DISCOVERY_REPEATS = 20
#: E9: healthy applications each peer carries
APPS_PER_SERVER = 30
#: A2: seconds between the slow client's polls
SLOW_POLL = 3.0
#: E13: the fleet error fraction of a bucket that counts as detection —
#: the request SLO's fast-burn threshold, 10x a 0.1% error budget
BREACH_THRESHOLD = 0.01


def _corba_ceiling(duration: float) -> float:
    """Saturate one ORB server with concurrent invocations; calls/s."""
    sim, orb, ref = _echo_orb(0.0005)
    done = {"calls": 0}

    def caller():
        while sim.now < duration:
            yield from orb.invoke(ref, "echo", 42)
            done["calls"] += 1

    for _ in range(CORBA_CALLERS):
        sim.spawn(caller())
    sim.run(until=duration)
    return done["calls"] / duration


def run_protocol_asymmetry(*, duration: float = 15.0) -> list:
    """E3: each protocol's sustainable per-server message ceiling — the
    custom TCP application channel, CORBA, HTTP+servlets — one row each,
    beside the per-message service time the cost model charges."""
    costs = CostModel()
    # TCP ceiling: push the app channel into saturation and read the
    # measured message throughput (3 channel messages per update).
    tcp_row = run_app_scalability(70, duration=duration)
    # HTTP ceiling: saturated polling clients.
    http_row = run_client_scalability(40, duration=duration,
                                      poll_interval=0.05)
    return [
        {"protocol": "custom TCP (app channel)",
         "model_cost_ms": costs.tcp_cost(512) * 1e3,
         "measured_ceiling_msgs_per_s": tcp_row["throughput_per_s"] * 3},
        {"protocol": "CORBA (server-to-server)",
         "model_cost_ms": costs.corba_cost(512) * 1e3,
         "measured_ceiling_msgs_per_s": _corba_ceiling(duration)},
        {"protocol": "HTTP+servlet (clients)",
         "model_cost_ms": costs.http_cost(512) * 1e3,
         "measured_ceiling_msgs_per_s": http_row["polls"] / duration},
    ]


def run_discovery_overhead(n_domains: int) -> dict:
    """E7 (+A3, the trader on top of naming): a trader query for
    service-id DISCOVER, a naming resolve of one application id, and an
    invocation through an already-cached reference, as the number of
    registered servers grows."""
    collab = build_collaboratory(n_domains, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    apps = make_app_farm(collab, 1, domain_index=0, user="bench")
    collab.sim.run(until=collab.sim.now + 2.0)
    app_id = apps[0].app_id
    server = collab.server_of(min(1, n_domains - 1))
    recorder = LatencyRecorder(collab.sim)

    def probe():
        # warm resolution so "cached" is truly cached
        ref = yield from server.registry.remote_proxy_ref(app_id)
        for _ in range(DISCOVERY_REPEATS):
            recorder.start("trader_query", 0)
            yield from server.orb.invoke(server.trader_ref, "query",
                                         SERVICE_ID)
            recorder.stop("trader_query", 0)
            recorder.start("naming_resolve", 0)
            yield from server.orb.invoke(server.naming_ref, "resolve",
                                         app_id)
            recorder.stop("naming_resolve", 0)
            recorder.start("cached_ref_call", 0)
            yield from server.orb.invoke(ref, "get_status")
            recorder.stop("cached_ref_call", 0)

    run_process(collab.sim, probe())
    return {
        "n_servers": n_domains,
        "trader_offers": collab.trader.offer_count(),
        "trader_query_ms": recorder.stats("trader_query").mean * 1e3,
        "naming_resolve_ms": recorder.stats("naming_resolve").mean * 1e3,
        "cached_ref_call_ms": recorder.stats("cached_ref_call").mean * 1e3,
    }


def run_remote_login(n_domains: int, *, use_directory: bool = False,
                     logins: int = 10) -> dict:
    """E8 / A5: login latency as the server network grows.  Per §5.2.2
    login authenticates the client with *every* peer server (the serial
    fan-out); ``use_directory=True`` is §6.3's GIS-style directory."""
    collab = build_collaboratory(n_domains, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 use_directory=use_directory)
    collab.run_bootstrap()
    # one app per domain so the fan-out returns real listings
    for d in range(n_domains):
        make_app_farm(collab, 1, domain_index=d, user="bench")
    collab.sim.run(until=collab.sim.now + 2.0)
    recorder = LatencyRecorder(collab.sim)

    def login_loop():
        count = 0
        for i in range(logins):
            portal = collab.add_portal(0)
            recorder.start("login", i)
            apps = yield from portal.login("bench")
            recorder.stop("login", i)
            count = len(apps)
            yield from portal.logout()
            portal.close()
        return count

    apps_listed = run_process(collab.sim, login_loop())
    stats = recorder.stats("login")
    return {
        "auth": "directory" if use_directory else "fan-out",
        "n_servers": n_domains,
        "n_peers": n_domains - 1,
        "apps_listed": apps_listed,
        "mean_login_ms": stats.mean * 1e3,
        "p90_login_ms": stats.p90 * 1e3,
    }


def run_network_scalability(n_servers: int, *, duration: float = 15.0,
                            single_server: bool = False) -> dict:
    """E9: ``n_servers`` peers each carrying a healthy
    :data:`APPS_PER_SERVER` applications.  ``single_server=True`` is the
    strawman — the same total pushed at one server (an E1 run)."""
    total = n_servers * APPS_PER_SERVER
    if single_server:
        row = run_app_scalability(total, duration=duration)
        return {
            "deployment": "single server",
            "n_servers": 1,
            "total_apps": total,
            **{k: row[k] for k in (
                "mean_lag_ms", "p90_lag_ms", "throughput_per_s", "saturated",
                "http_requests", "orb_requests", "channel_requests",
                "pipeline_errors", "sessions_expired")},
        }
    collab = build_collaboratory(n_servers, apps_hosts_per_domain=4,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    recorder = LatencyRecorder(collab.sim)
    for d in range(n_servers):
        collab.server_of(d).recorder = recorder
        make_app_farm(collab, APPS_PER_SERVER, domain_index=d, user="bench")
    collab.sim.run(until=collab.sim.now + duration)
    stats = recorder.stats("update_lag")
    return {
        "deployment": f"p2p x{n_servers}",
        "n_servers": n_servers,
        "total_apps": total,
        "mean_lag_ms": stats.mean * 1e3,
        "p90_lag_ms": stats.p90 * 1e3,
        "throughput_per_s": stats.count / duration,
        "saturated": stats.mean > 0.5,
        **pipeline_counters(collab.servers.values()),
    }


def run_lock_relay(*, wan_latency: float = 0.030, ops: int = 20) -> list:
    """E10: steering-lock acquire/release round trips for a client local
    to the application's home server and one relayed across the WAN,
    contending in one run — a row per placement."""
    spec = LinkSpec(wan_latency=wan_latency)
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1, spec=spec)
    collab.run_bootstrap()
    apps = make_app_farm(collab, 1, domain_index=0, user="bench")
    collab.sim.run(until=collab.sim.now + 2.0)
    app_id = apps[0].app_id
    recorder = LatencyRecorder(collab.sim)
    contention = {}

    def cycle(portal, op, start_delay):
        yield collab.sim.timeout(start_delay)
        yield from portal.login("bench")
        session = yield from portal.open(app_id)
        for i in range(ops):
            recorder.start(f"{op}_acquire", i)
            outcome = yield from session.acquire_lock()
            recorder.stop(f"{op}_acquire", i)
            contention.setdefault(op, []).append(outcome)
            if outcome == "granted":
                recorder.start(f"{op}_release", i)
                yield from session.release_lock()
                recorder.stop(f"{op}_release", i)
            yield collab.sim.timeout(0.05)

    collab.sim.spawn(cycle(collab.add_portal(0), "local", 0.0))
    collab.sim.spawn(cycle(collab.add_portal(1), "remote", 0.02))
    collab.sim.run(until=collab.sim.now + 30.0)

    rows = []
    for op in ("local", "remote"):
        acq = recorder.stats(f"{op}_acquire")
        outcomes = contention.get(op, [])
        rows.append({
            "placement": op,
            "acquire_ms": acq.mean * 1e3,
            "release_ms": recorder.stats(f"{op}_release").mean * 1e3,
            "acquires": acq.count,
            "granted": outcomes.count("granted"),
            "queued": outcomes.count("queued"),
        })
    return rows


def run_corba_vs_socket(payload_floats: int, *, calls: int = 30,
                        latency: float = 0.001) -> dict:
    """E11-corba: the same request/reply payload over the mini-ORB
    (marshalling + dispatch costs) and over a raw socket-style channel
    (endpoint send + echo process)."""
    payload = [float(i) for i in range(payload_floats)]

    def mean_rtt(sim, one_call) -> float:
        recorder = LatencyRecorder(sim)

        def caller():
            for i in range(calls):
                recorder.start("rtt", i)
                yield from one_call()
                recorder.stop("rtt", i)

        run_process(sim, caller())
        return recorder.stats("rtt").mean * 1e3

    sim, orb, ref = _echo_orb(latency)
    corba = mean_rtt(sim, lambda: orb.invoke(ref, "echo", payload))

    # the lower-level socket system: endpoints + an echo process
    sim, net = _two_hosts(latency)
    client = net.hosts["a"].bind(9000)
    server = net.hosts["b"].bind(9001)

    def echo_server():
        for _ in range(calls):
            frame = yield server.recv()
            msg = frame.payload
            # raw system still deserializes: charge the cheap TCP cost
            yield from net.hosts["b"].use_cpu(0.003 + 2e-8 * frame.size)
            server.send(frame.src_host, frame.src_port,
                        ResponseMessage(msg.request_id, msg.args["data"],
                                        msg_id=sim.next_id("msg")))

    def raw_call():
        client.send("b", 9001, CommandMessage("echo", {"data": payload},
                                              msg_id=sim.next_id("msg")))
        yield client.recv()

    sim.spawn(echo_server())
    raw = mean_rtt(sim, raw_call)
    return {
        "payload_floats": payload_floats,
        "payload_kb": payload_floats * 9 / 1024.0,
        "corba_rtt_ms": corba,
        "raw_socket_rtt_ms": raw,
        "overhead_ms": corba - raw,
        "overhead_pct": 100.0 * (corba - raw) / raw,
    }


def run_archival_replay(history_k: int) -> dict:
    """E12-replay: a driver builds up ``history_k`` archived
    interactions; a latecomer then joins and fetches catch-up history and
    the full replay."""
    collab, app_id = _single_server_with_app(update_period=0.2)
    recorder = LatencyRecorder(collab.sim)

    def driver():
        portal = collab.add_portal(0)
        yield from portal.login("bench")
        session = yield from portal.open(app_id)
        yield from session.acquire_lock()
        for _ in range(history_k):
            # archive grows by one interaction per command
            yield from session.command("get_param", {"name": "gain"})
            yield collab.sim.timeout(0.01)
        # let responses drain
        yield collab.sim.timeout(2.0)

    def latecomer():
        portal = collab.add_portal(0)
        yield from portal.login("bench")
        session = yield from portal.open(app_id)
        recorder.start("catchup", 0)
        records = yield from session.catchup(n=history_k)
        recorder.stop("catchup", 0)
        recorder.start("full_replay", 0)
        replay = yield from session.replay_interactions()
        recorder.stop("full_replay", 0)
        return (len(records), len(replay))

    run_process(collab.sim, driver())
    caught, replayed = run_process(collab.sim, latecomer())
    return {
        "history_k": history_k,
        "catchup_records": caught,
        "replay_records": replayed,
        "catchup_ms": recorder.stats("catchup").mean * 1e3,
        "full_replay_ms": recorder.stats("full_replay").mean * 1e3,
    }


def run_poll_interval(poll_interval: float, *, n_clients: int = 8,
                      duration: float = 20.0) -> dict:
    """A1: a fixed client population polling at ``poll_interval`` —
    update staleness against server request load."""
    collab, app_id = _single_server_with_app()
    server = collab.server_of(0)
    recorder = LatencyRecorder(collab.sim)
    served_before = server.pipeline_metrics.requests(PLANE_HTTP)
    for _ in range(n_clients):
        portal = collab.add_portal(0)
        collab.sim.spawn(update_watching_client(
            portal, app_id, user="bench", duration=duration,
            poll_interval=poll_interval, recorder=recorder))
    collab.sim.run(until=collab.sim.now + duration + 1.0)
    stats = recorder.stats("update_latency")
    requests = server.pipeline_metrics.requests(PLANE_HTTP) - served_before
    return {
        "poll_interval_ms": poll_interval * 1e3,
        "mean_staleness_ms": stats.mean * 1e3,
        "p90_staleness_ms": stats.p90 * 1e3,
        "server_requests": requests,
        "requests_per_s": requests / duration,
    }


def run_fifo_buffers(capacity: float, *, duration: float = 30.0,
                     update_period: float = 0.1) -> dict:
    """A2: one fast application, one slow client, a per-client FIFO
    buffer of ``capacity`` messages (``inf`` = unbounded): peak buffer
    depth against messages dropped."""
    collab, app_id = _single_server_with_app(
        update_period=update_period, client_buffer_capacity=capacity)
    server = collab.server_of(0)
    recorder = LatencyRecorder(collab.sim)
    peak = {"depth": 0}

    def watch_buffers():
        for _ in range(int((duration + 1.0) / 0.1)):
            for session in server.collab._sessions.values():
                peak["depth"] = max(peak["depth"], len(session.buffer))
            yield collab.sim.timeout(0.1)

    collab.sim.spawn(watch_buffers())
    portal = collab.add_portal(0)
    collab.sim.spawn(polling_client(
        portal, app_id, user="bench", duration=duration,
        poll_interval=SLOW_POLL, recorder=recorder))
    collab.sim.run(until=collab.sim.now + duration + 1.0)
    delivered = server.collab.delivered
    dropped = server.collab.dropped
    return {
        "capacity": ("unbounded" if capacity == float("inf")
                     else int(capacity)),
        "peak_buffer_depth": peak["depth"],
        "delivered": delivered,
        "dropped": dropped,
        "drop_pct": 100.0 * dropped / max(1, delivered + dropped),
    }


def run_update_mode(update_mode: str, *, poll_interval: float = 0.25,
                    duration: float = 20.0,
                    update_period: float = 0.5) -> dict:
    """A4: server-to-server update propagation by push (§5.2.3's traffic
    argument) or by poll every ``poll_interval`` (§5.2.3's literal text),
    watched by two clients in the remote domain."""
    collab = build_collaboratory(
        2, apps_hosts_per_domain=1, client_hosts_per_domain=2,
        spec=LinkSpec(wan_latency=0.060), update_mode=update_mode,
        update_poll_interval=poll_interval)
    collab.run_bootstrap()
    apps = make_app_farm(collab, 1, domain_index=0, user="bench",
                         update_period=update_period)
    collab.sim.run(until=collab.sim.now + 2.0)
    app_id = apps[0].app_id
    recorder = LatencyRecorder(collab.sim)
    for _ in range(2):
        portal = collab.add_portal(1)
        collab.sim.spawn(update_watching_client(
            portal, app_id, user="bench", duration=duration,
            poll_interval=0.25, recorder=recorder))
    collab.net.trace.reset()
    collab.sim.run(until=collab.sim.now + duration + 1.0)
    stats = recorder.stats("update_latency")
    label = (f"poll@{poll_interval * 1e3:.0f}ms"
             if update_mode == "poll" else "push")
    return {
        "mode": label,
        "wan_messages": collab.net.trace.wan_messages,
        "wan_kb": collab.net.trace.wan_bytes / 1024.0,
        "mean_staleness_ms": stats.mean * 1e3,
        "updates_seen": stats.count,
    }


def run_remote_access(*, remote_access: str, watchers: int = 0,
                      duration: float = 20.0,
                      wan_latency: float = 0.030) -> dict:
    """A7: remote access by middleware relay or by request redirection
    (§4.1), for one steering engineer (``watchers=0``) or a group of
    ``watchers`` update-watching clients at the remote site."""
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=max(1, watchers),
                                 spec=LinkSpec(wan_latency=wan_latency),
                                 remote_access=remote_access)
    collab.run_bootstrap()
    app = collab.add_app(1, SyntheticApp, "target", acl={"bench": "write"},
                         config=INTERACTIVE_APP)
    collab.sim.run(until=collab.sim.now + 2.0)
    recorder = LatencyRecorder(collab.sim)
    collab.net.trace.reset()
    if watchers:
        for _ in range(watchers):
            collab.sim.spawn(update_watching_client(
                collab.add_portal(0), app.app_id, user="bench",
                duration=duration, poll_interval=0.25, recorder=recorder))
    else:
        collab.sim.spawn(steering_client(
            collab.add_portal(0), app.app_id, user="bench",
            duration=duration, command_interval=0.5, recorder=recorder,
            poll_interval=0.05))
    collab.sim.run(until=collab.sim.now + duration + 2.0)
    stats = recorder.stats("update_latency" if watchers else "steer_rtt")
    return {
        "workload": f"{watchers} watchers" if watchers else "1 steerer",
        "mode": remote_access,
        "mean_steer_rtt_ms": stats.mean * 1e3,
        "commands": stats.count,
        "corba_relays": 0 if watchers else sum(
            s.stats["remote_commands_relayed"]
            for s in collab.servers.values()),
        "wan_messages": collab.net.trace.wan_messages,
    }


def run_traced_remote_command(*, wan_latency: float = 0.060,
                              sampling="always"):
    """Observability scenario: one cross-server steering command, traced.

    Two domains; the application is homed in domain 1, the client's portal
    in domain 0, so a single ``get_param`` steer crosses the WAN through
    the full stack — portal → HTTP plane → router → federation relay →
    GIOP client → home server's ORB plane → proxy — and the tracer
    reconstructs it as one span tree spanning both servers.

    Returns ``(row, tracer, registry)``: the scenario row, the shared
    :class:`~repro.obs.Tracer` (its store holds the trace), and the
    deployment's :class:`~repro.obs.MetricsRegistry`.
    """
    spec = LinkSpec(wan_latency=wan_latency)
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1, spec=spec,
                                 trace_sampling=sampling)
    collab.run_bootstrap()
    app = collab.add_app(1, SyntheticApp, "traced-target",
                         acl={"bench": "write"}, config=INTERACTIVE_APP)
    collab.sim.run(until=collab.sim.now + 2.0)
    portal = collab.add_portal(0)
    result = {}

    def scenario():
        yield from portal.login("bench")
        session = yield from portal.open(app.app_id)
        result["value"] = yield from session.steer("get_param",
                                                   {"name": "gain"})

    run_process(collab.sim, scenario(), name="traced-steer")
    tracer = collab.tracer
    row = {
        "wan_latency_ms": wan_latency * 1e3,
        "virtual_time_s": collab.sim.now,
        "result": result.get("value"),
        **pipeline_counters(collab.servers.values(), tracer=tracer),
    }
    return row, tracer, collab.metrics_registry()


def _run_kill_drill(app_name: str, *, duration: float, kill_at: float,
                    response_timeout: float, outage: Optional[float] = None,
                    heartbeat_period: float = 0.25,
                    gossip_period: float = 0.5,
                    peer_call_timeout: float = 0.5, **deployment):
    """The run E10b and E13 share: three domains, the steered app homed in
    domain 1 with a same-named replica in domain 2, a resilient client in
    domain 0 steering for ``duration``.  The domain-1 server is killed at
    ``kill_at`` and, given an ``outage``, restarted that much later; a
    fault not before the run's end (``duration + 2.0``) is a ValueError.
    Returns ``(collab, victim, t0, counts, kill_t)``: the killed server
    object and the instant the kill landed among them.
    """
    last = kill_at if outage is None else kill_at + outage
    if not last < duration + 2.0:
        named = "kill_at" if outage is None else "kill_at + outage"
        raise ValueError(f"{named} = {last} s does not land before the "
                         f"run's end (duration + 2.0 = {duration + 2.0} s)")
    collab = build_collaboratory(3, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 health_period=heartbeat_period,
                                 health_gossip_period=gossip_period,
                                 **deployment)
    for server in collab.servers.values():
        server.peer_call_timeout = peer_call_timeout
    collab.run_bootstrap()
    primary = collab.add_app(1, SyntheticApp, app_name,
                             acl={"bench": "write"}, config=INTERACTIVE_APP)
    collab.add_app(2, SyntheticApp, app_name,
                   acl={"bench": "write"}, config=INTERACTIVE_APP)
    collab.sim.run(until=collab.sim.now + 2.0)  # apps register

    victim = collab.server_of(1)
    portal = collab.add_portal(0)
    counts: dict = {}
    t0 = collab.sim.now
    collab.sim.spawn(resilient_steering_client(
        portal, primary.app_id, user="bench", duration=duration,
        command_interval=0.5, counts=counts,
        response_timeout=response_timeout))
    kill = Kill(victim.name, kill_at)
    faults = (kill,) if outage is None else (
        kill, Restart(victim.name, kill_at + outage))
    _process, landed = inject(collab, faults)
    collab.sim.run(until=t0 + duration + 2.0)
    return collab, victim, t0, counts, landed[kill][0]


def run_fault_injection(*, duration: float = 30.0, kill_at: float = 10.0,
                        log_sink=None, **probe_cadence):
    """E10b: kill a server mid-run; measure detection, failover, alerting.

    On top of :func:`_run_kill_drill`, the health plane on the
    surviving servers must (a) mark ``server:srvB`` unhealthy within the
    hysteresis bound, (b) fail the client's commands over to the replica,
    (c) fire an SLO burn-rate alert on the client-facing server with
    trace exemplars, and (d) resolve the alert once failover restores the
    error budget.  ``probe_cadence`` (``heartbeat_period``,
    ``gossip_period``, ``peer_call_timeout``) is the variable of
    EXPERIMENTS' detection-latency sweep.

    Returns ``(row, collab)`` — the measured row plus the live deployment
    so callers (the status CLI, the CI artifact exporter) can scrape
    ``GET /status?format=prom`` from it afterwards.
    """
    collab, victim, _t0, counts, kill_t = _run_kill_drill(
        "fault-target", duration=duration, kill_at=kill_at,
        response_timeout=5.0, log_sink=log_sink, **probe_cadence)

    client_server = collab.server_of(0)
    victim_key = client_server.health.server_key(victim.name)
    detection = client_server.health.detection_latency(victim.name, kill_t)
    survivors = [s for s in collab.servers.values() if s is not victim]
    exemplars = sorted({tid for a in client_server.health.alerts.history()
                        for tid in a.exemplars})
    row = {
        "duration_s": duration,
        "kill_at_s": kill_at,
        "victim": victim.name,
        "victim_status": client_server.health.status_of(victim_key),
        "detection_latency_s": detection,
        "commands_ok": counts.get("ok", 0),
        "commands_failed": counts.get("failed", 0),
        "alert_exemplars": len(exemplars),
        **pipeline_counters(survivors, tracer=collab.tracer),
    }
    return row, collab


def run_recovery_drill(*, n_commands: int = 10,
                       command_interval: float = 0.5,
                       outage: float = 1.0, settle: float = 4.0,
                       snapshot_every: int = 32):
    """E12: kill a server mid-collaboration, restart it, recover its planes.

    Two domains; the steered application is homed in domain 1.  A driver
    client joins a sub-group, takes the steering lock, and issues
    ``n_commands`` mutating commands; a second client queues behind the
    lock.  Then the domain-1 server is stopped cold (``Kill``) and — after
    ``outage`` virtual seconds — replaced (``Restart``, through
    :meth:`~repro.core.deployment.Collaboratory.restart_server`), which
    rebuilds sessions, proxies, lock tables, group membership, and the
    archive from the surviving in-memory backend's ``snapshot + WAL
    tail`` (the on-disk :class:`~repro.storage.JsonlBackend` restart is
    ``tests/core/test_recovery.py``'s and the ``crash_recovery``
    workload's).  Finally a latecomer in domain 0 logs in as a read-only
    ACL user and catches up from the recovered archive across the WAN.

    Returns ``(row, collab)``; every row value is a function of the
    arguments (host recovery time is the ``crash_recovery`` benchmark's).
    """
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 storage_snapshot_every=snapshot_every)
    collab.run_bootstrap()
    primary = collab.add_app(1, SyntheticApp, "recovery-target",
                             acl={"bench": "write", "observer": "read"},
                             config=INTERACTIVE_APP)
    collab.sim.run(until=collab.sim.now + 2.0)  # app registers
    app_id = primary.app_id
    victim = collab.server_of(1)
    victim_name = victim.name

    driver = collab.add_portal(1)
    waiter = collab.add_portal(1)
    state: dict = {}

    def join_and_lock(portal, who):
        yield from portal.login("bench")
        session = yield from portal.open(app_id)
        yield from session.join_group("scientists")
        state[f"{who}_lock"] = yield from session.acquire_lock()
        state[who] = session

    run_process(collab.sim, join_and_lock(driver, "driver"),
                name="driver-setup")
    run_process(collab.sim, join_and_lock(waiter, "waiter"),
                name="waiter-setup")

    def drive_commands():
        session = state["driver"]
        for i in range(n_commands):
            yield collab.sim.timeout(command_interval)
            yield from session.set_param("gain", float(i % 100))

    run_process(collab.sim, drive_commands(), name="driver-commands")

    def planes_of(server):
        return {
            "sessions": server.collab.session_count(),
            "holder": server.locks.holder_of(app_id),
            "queue": server.locks.queue_length(app_id),
            "members_all": server.collab.members_of(app_id),
            "members_sci": server.collab.members_of(app_id, "scientists"),
            "interactions": server.archive.interaction_count(app_id),
        }

    pre = planes_of(victim)
    wal_appends = victim.storage_metrics.get("wal_appends")
    pre_snapshots = victim.storage_metrics.get("snapshots")

    # -- crash, outage, restart, recovery; settle once it has rejoined ----
    restart = Restart(victim_name, outage)
    injector, landed = inject(collab, (Kill(victim_name, 0.0), restart))
    collab.sim.run(until=injector)
    collab.sim.run(until=collab.sim.now + settle)
    _instant, report = landed[restart]
    post = planes_of(collab.servers[victim_name])

    # -- latecomer catch-up across the WAN from the recovered archive -----
    late = collab.add_portal(0)
    records: dict = {}

    def latecomer():
        yield from late.login("observer")
        session = yield from late.open(app_id)
        records["catchup"] = yield from session.catchup(
            n=max(100, n_commands))
        records["app_log"] = yield from session.replay_app_log()

    run_process(collab.sim, latecomer(), name="latecomer")

    row = {
        "victim": victim_name,
        "outage_s": outage,
        "snapshot_every": snapshot_every,
        "pre_sessions": pre["sessions"],
        "recovered_sessions": post["sessions"],
        "pre_interactions": pre["interactions"],
        "recovered_interactions": post["interactions"],
        "lock_preserved": post["holder"] == pre["holder"],
        "queue_preserved": post["queue"] == pre["queue"],
        "groups_preserved": (post["members_all"] == pre["members_all"]
                             and post["members_sci"] == pre["members_sci"]),
        "wal_appends": wal_appends,
        "pre_snapshots": pre_snapshots,
        "wal_replayed": report.replayed,
        "snapshot_lsn": report.snapshot_lsn,
        "catchup_records": len(records.get("catchup", ())),
        "app_log_records": len(records.get("app_log", ())),
        **pipeline_counters(collab.servers.values(), tracer=collab.tracer),
    }
    return row, collab


def run_telemetry_drill(*, duration: float = 30.0, kill_at: float = 10.0,
                        outage: float = 2.0, settle: float = 5.0,
                        bucket_width: float = 1.0, warmup: float = 2.0):
    """E13: kill-and-recover, observed entirely through the telemetry plane.

    The E10b fault shape (:func:`_run_kill_drill`) plus the E12
    recovery (the victim restarts after ``outage`` and rejoins), but
    every headline number is *queried from the time-series store* rather
    than read off live collectors — the drill that proves the plane
    supports post-hoc fleet-wide analysis:

    - **detection**: the fleet-merged per-bucket error rate
      (``pipeline.errors.http`` over the ``count`` of the bucket's
      ``pipeline.latency.http`` point) first breaches
      :data:`BREACH_THRESHOLD` within one bucket width of the kill
      instant.
    - **recovery**: the fleet-merged ``pipeline.latency.http`` p99 over
      the post-recovery window returns to within one log-bucket
      (~9.05% < 10%) of the pre-kill baseline.  The baseline window
      starts ``warmup`` seconds in, so the one-off login/open setup
      requests don't inflate the steady-state tail being compared.

    The merge includes the dead victim's registry (captured before the
    restart replaces it), so pre-kill history survives the crash in the
    fleet view.  Buckets are ``bucket_width`` (1 s) wide so the windows
    are legible in the E13 table.  Returns ``(row, collab, merged)`` —
    ``merged`` is the fleet-merged
    :class:`~repro.obs.TimeSeriesRegistry` for further queries.
    """
    # crash → outage → restart → recovery, with the client steering
    # through all of it; the killed server object keeps its registry, so
    # its pre-kill series join the merge beside its replacement's
    collab, victim, t0, counts, kill_t = _run_kill_drill(
        "drill-target", duration=duration, kill_at=kill_at, outage=outage,
        response_timeout=2.0, timeseries_bucket_width=bucket_width)
    end = collab.sim.now
    merged = collab.merged_timeseries(extra=[victim.timeseries])

    # detection: first bucket whose fleet error fraction breaches the
    # fast-burn threshold; a bucket's requests are its latency count
    requests = {p["t"]: p["count"]
                for p in merged.query("pipeline.latency.http", "points",
                                      start=t0, end=end)}
    try:
        errors = merged.query("pipeline.errors.http", "points",
                              start=t0, end=end)
    except KeyError:
        errors = []
    breach_start = None
    for point in errors:
        total = requests.get(point["t"], 0.0)
        if total > 0 and point["value"] / total >= BREACH_THRESHOLD:
            breach_start = point["t"]
            break

    # recovery: merged p99 over the post-recovery window vs the pre-kill
    # baseline, both straight from quantile queries over the store.  The
    # baseline ends at the last bucket boundary at or before the kill:
    # the straddling bucket also holds post-kill timeout latencies.
    recover_t = kill_t + outage + settle
    baseline_end = (kill_t // bucket_width) * bucket_width
    p99_baseline = merged.query("pipeline.latency.http", "quantile",
                                start=t0 + warmup, end=baseline_end, q=0.99)
    p99_recovered = merged.query("pipeline.latency.http", "quantile",
                                 start=recover_t, end=end, q=0.99)
    snap = merged.snapshot()
    row = {
        "duration_s": duration,
        "bucket_width_s": bucket_width,
        "kill_at_s": round(kill_t - t0, 3),
        "outage_s": outage,
        "victim": victim.name,
        "breach_delay_s": (None if breach_start is None
                           else round(breach_start - kill_t, 3)),
        "p99_baseline_ms": round(p99_baseline * 1e3, 3),
        "p99_recovered_ms": round(p99_recovered * 1e3, 3),
        "p99_ratio": round(p99_recovered / p99_baseline, 4),
        "commands_ok": counts.get("ok", 0),
        "commands_failed": counts.get("failed", 0),
        "merged_series": snap["series"],
        "merged_points": snap["points"],
        **pipeline_counters(collab.servers.values(), tracer=collab.tracer),
    }
    return row, collab, merged


def scrape_status(collab, *, domain_index: int = 0, path: str = "/status",
                  params: Optional[dict] = None):
    """Issue one in-sim ``GET`` against a server's status servlet.

    Drives the live deployment a little further so the request flows
    through the real interceptor pipeline (the scrape itself is metered
    and traced, like a production Prometheus pull).  Returns the response
    body — a dict for the JSON views, the raw exposition text for
    ``params={"format": "prom"}``.
    """
    from repro.web.client import HttpClient

    domain = collab.domains[domain_index]
    host = (domain.client_hosts or [domain.server])[0]
    client = HttpClient(host, domain.server.name)
    result = {}

    def scrape():
        result["body"] = yield from client.get(path, params)

    run_process(collab.sim, scrape(), name="status-scrape")
    client.close()
    return result["body"]
