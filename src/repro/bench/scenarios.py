"""End-to-end scenario runners — one per experiment family.

Every runner assembles a fresh deployment, drives a workload for a stretch
of *virtual* time, and returns a plain dict of measured quantities (one
table row).  Wall-clock cost is what pytest-benchmark reports; the science
is in the returned rows.
"""

from __future__ import annotations

from typing import Optional

from repro.apps import SyntheticApp
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
from repro.core.deployment import (
    build_collaboratory,
    build_single_server,
    reset_runtime_ids,
)
from repro.metrics import LatencyRecorder
from repro.net.costs import CostModel, LinkSpec
from repro.pipeline.core import PLANE_CHANNEL, PLANE_HTTP, PLANE_ORB


#: footer key → the collector counter(s) it sums across servers
_FEDERATION_KEYS = {
    "fed_subscribes": ("subscribes",),
    "fed_unsubscribes": ("unsubscribes",),
    "fed_invalidations": ("app_invalidations", "peer_invalidations"),
    "fed_poll_failovers": ("poll_failovers",),
    "fed_discovery_skipped": ("discovery_skipped",),
}
_DIRECTORY_KEYS = {
    "dir_lookups": "lookups", "dir_locates": "locates",
    "dir_publishes": "publishes", "dir_read_failovers": "read_failovers",
    "dir_write_skips": "write_skips",
    "dir_stale_retries": "stale_epoch_retries",
    "dir_stub_hits": "stub_cache_hits", "dir_stub_misses": "stub_cache_misses",
}
_STORAGE_KEYS = {
    "storage_appends": "wal_appends", "storage_snapshots": "snapshots",
    "storage_compacted": "records_compacted",
    "storage_recoveries": "recoveries", "storage_replayed": "records_replayed",
}
#: ledger dimensions reported as ``cost_<dim>`` footer keys
_COST_DIMS = ("requests", "events", "cpu_us", "wan_bytes", "dropped_frames",
              "dropped_bytes")


def pipeline_counters(servers, tracer=None) -> dict:
    """Aggregate per-plane pipeline counters across ``servers`` into the
    extra row keys every scenario reports (``http_requests``,
    ``orb_requests``, ``channel_requests``, ``pipeline_errors``,
    ``sessions_expired``), plus the federation layer's subscription and
    cache-invalidation totals (``fed_subscribes``, ``fed_unsubscribes``,
    ``fed_invalidations``, ``fed_poll_failovers``), and the health plane's
    fleet summary (``health_healthy`` / ``health_degraded`` /
    ``health_unhealthy`` / ``health_unknown`` status counts plus
    ``alerts_fired`` / ``alerts_resolved`` / ``health_failovers``),
    and the directory plane's client totals (``dir_lookups``,
    ``dir_locates``, ``dir_publishes``, ``dir_read_failovers``,
    ``dir_write_skips``, ``dir_stale_retries``, ``dir_stub_hits``,
    ``dir_stub_misses``) plus ``fed_discovery_skipped``, and the durable
    state plane's totals (``storage_appends``, ``storage_snapshots``,
    ``storage_compacted``, ``storage_recoveries``, ``storage_replayed``).
    Observability totals ride along too: the structured log's retained /
    ring-dropped record counts (``log_records``, ``log_dropped`` — so
    overflow is visible, not silent) and the size of the servers'
    time-series registries (``ts_series``, ``ts_points``; the cost ledger
    keeps no series).  The cost-attribution plane's fleet totals close
    the set (``cost_requests``, ``cost_events``, ``cost_cpu_us``,
    ``cost_wan_bytes``, ``cost_dropped_frames``, ``cost_dropped_bytes``,
    ``cost_entries`` — distinct rollup keys — and ``cost_top_principal``,
    the heaviest requester); a ledger shared by several servers counts
    once, and servers built with accounting off contribute none.
    Passing the deployment's tracer adds the span-store totals
    (``spans_recorded``, ``traces_recorded``, ``spans_dropped``)."""
    row = dict.fromkeys((
        "http_requests", "orb_requests", "channel_requests",
        "pipeline_errors", "sessions_expired",
        *_FEDERATION_KEYS, *_DIRECTORY_KEYS, *_STORAGE_KEYS,
        "health_healthy", "health_degraded", "health_unhealthy",
        "health_unknown", "alerts_fired", "alerts_resolved",
        "health_failovers", "log_records", "log_dropped", "ts_series",
        "ts_points", *(f"cost_{dim}" for dim in _COST_DIMS),
        "cost_entries"), 0)
    ledgers: dict = {}  # id → ledger: shared deployment ledgers count once
    for server in servers:
        metrics = server.pipeline_metrics
        row["http_requests"] += metrics.requests(PLANE_HTTP)
        row["orb_requests"] += metrics.requests(PLANE_ORB)
        row["channel_requests"] += metrics.requests(PLANE_CHANNEL)
        row["pipeline_errors"] += metrics.errors()
        row["sessions_expired"] += server.container.sessions_expired
        for key, counters in _FEDERATION_KEYS.items():
            row[key] += sum(map(server.federation_metrics.get, counters))
        for key, counter in _DIRECTORY_KEYS.items():
            row[key] += server.directory_metrics.get(counter)
        for key, counter in _STORAGE_KEYS.items():
            row[key] += server.storage_metrics.get(counter)
        health = server.health
        for status, n in health.model.status_counts().items():
            row[f"health_{status}"] += n
        alert_snap = health.alerts.snapshot()
        row["alerts_fired"] += alert_snap["fired"]
        row["alerts_resolved"] += alert_snap["resolved"]
        row["health_failovers"] += health.counters["failovers"]
        row["log_records"] += len(server.log)
        row["log_dropped"] += server.log.dropped
        ts_snap = server.timeseries.snapshot()
        row["ts_series"] += ts_snap["series"]
        row["ts_points"] += ts_snap["points"]
        if server.ledger is not None:
            ledgers[id(server.ledger)] = server.ledger
    row["cost_top_principal"] = "-"
    top_requests = -1
    for ledger in ledgers.values():
        totals = ledger.total.as_dict()
        for dim in _COST_DIMS:
            row[f"cost_{dim}"] += totals[dim]
        row["cost_entries"] += len(ledger.entries)
        for principal, count, _err in ledger.top("requests", 1):
            if count > top_requests:
                row["cost_top_principal"], top_requests = principal, count
    if tracer is not None:
        row["spans_recorded"] = len(tracer.store)
        row["traces_recorded"] = len(tracer.store.trace_ids())
        row["spans_dropped"] = tracer.store.dropped
    return row


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
        if profiler.tracer is None:
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
    collab = build_single_server(client_hosts=max(4, n_clients // 4),
                                 cost_model=cost_model,
                                 server_cpus=server_cpus)
    collab.run_bootstrap()
    apps = make_app_farm(collab, 1, user="bench")
    collab.sim.run(until=collab.sim.now + 2.0)  # app registers
    app_id = apps[0].app_id
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


def _start_kill_drill(app_name: str, *, duration: float, kill_at: float,
                      response_timeout: float,
                      heartbeat_period: float = 0.25,
                      gossip_period: float = 0.5,
                      peer_call_timeout: float = 0.5, **deployment):
    """The set-up E10b and E13 share, up to (not including) the first tick.

    Three domains; the steered application is homed in domain 1 with a
    same-named replica in domain 2.  A resilient client in domain 0
    steers through its local server for ``duration``; a fault-injector
    process stops the domain-1 server cold at ``kill_at`` (its ports
    unbind, so in-flight and later frames are dropped like TCP RSTs).
    Returns ``(collab, victim, t0, counts, kill_time)`` —
    ``kill_time["t"]`` is set when the kill lands.
    """
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
    kill_time = {}

    def killer():
        yield collab.sim.timeout(kill_at)
        kill_time["t"] = collab.sim.now
        victim.stop()

    collab.sim.spawn(killer(), name="fault-injector")
    return collab, victim, t0, counts, kill_time


def run_fault_injection(*, duration: float = 30.0, kill_at: float = 10.0,
                        log_sink=None, **probe_cadence):
    """E10b: kill a server mid-run; measure detection, failover, alerting.

    On top of :func:`_start_kill_drill`, the health plane on the
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
    collab, victim, t0, counts, kill_time = _start_kill_drill(
        "fault-target", duration=duration, kill_at=kill_at,
        response_timeout=5.0, log_sink=log_sink, **probe_cadence)
    collab.sim.run(until=t0 + duration + 2.0)

    client_server = collab.server_of(0)
    victim_key = client_server.health.server_key(victim.name)
    detection = client_server.health.detection_latency(
        victim.name, kill_time.get("t", t0 + kill_at))
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
    lock.  Then the domain-1 server is stopped cold and — after
    ``outage`` virtual seconds — replaced via
    :meth:`~repro.core.deployment.Collaboratory.restart_server`, which
    rebuilds sessions, proxies, lock tables, group membership, and the
    archive from the surviving in-memory backend's ``snapshot + WAL
    tail`` (the on-disk :class:`~repro.storage.JsonlBackend` restart is
    ``tests/core/test_recovery.py``'s and the ``crash_recovery``
    workload's).  Finally a latecomer in domain 0 logs in as a read-only
    ACL user and catches up from the recovered archive across the WAN.

    Returns ``(row, collab)``; every row value is deterministic except
    ``recovery_wall_ms`` (real time, reported not asserted).
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

    # -- crash, outage, restart, recovery ---------------------------------
    victim.stop()
    collab.sim.run(until=collab.sim.now + outage)
    server2, report = collab.restart_server(victim_name)
    collab.run_bootstrap()
    collab.sim.run(until=collab.sim.now + settle)
    post = planes_of(server2)

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
        "recovery_wall_ms": round(report.wall_ms, 3),
        "catchup_records": len(records.get("catchup", ())),
        "app_log_records": len(records.get("app_log", ())),
        **pipeline_counters(collab.servers.values(), tracer=collab.tracer),
    }
    return row, collab


def run_telemetry_drill(*, duration: float = 30.0, kill_at: float = 10.0,
                        outage: float = 2.0, settle: float = 5.0,
                        bucket_width: float = 1.0,
                        breach_threshold: float = 0.01,
                        warmup: float = 2.0):
    """E13: kill-and-recover, observed entirely through the telemetry plane.

    The E10b fault shape (:func:`_start_kill_drill`) plus the E12
    recovery (the victim restarts after ``outage`` and rejoins), but
    every headline number is *queried from the time-series store* rather
    than read off live collectors — the drill that proves the plane
    supports post-hoc fleet-wide analysis:

    - **detection**: the fleet-merged per-bucket error rate
      (``pipeline.errors.http`` over ``pipeline.requests.http``) first
      breaches ``breach_threshold`` — the default is the request SLO's
      fast burn threshold, 10x a 0.1% error budget — within one bucket
      width of the kill instant.
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
    # id-counter digits feed wire sizes, so the ledger's byte totals are
    # only run-deterministic if every drill starts from the same seeds
    reset_runtime_ids()
    collab, victim, t0, counts, kill_time = _start_kill_drill(
        "drill-target", duration=duration, kill_at=kill_at,
        response_timeout=2.0, timeseries_bucket_width=bucket_width)
    victim_name = victim.name

    # crash → outage → restart → recovery, with the client steering
    # through all of it; the victim's pre-kill series are captured before
    # restart_server swaps in a fresh registry
    collab.sim.run(until=t0 + kill_at + outage)
    victim_history = victim.timeseries
    collab.restart_server(victim_name)
    collab.run_bootstrap()
    collab.sim.run(until=t0 + duration + 2.0)
    end = collab.sim.now

    merged = collab.merged_timeseries(extra=[victim_history])
    kill_t = kill_time.get("t", t0 + kill_at)

    # detection: first bucket whose fleet error fraction breaches the
    # fast-burn threshold
    requests = {p["t"]: p["value"]
                for p in merged.query("pipeline.requests.http", "points",
                                      start=t0, end=end)}
    try:
        errors = merged.query("pipeline.errors.http", "points",
                              start=t0, end=end)
    except KeyError:
        errors = []
    breach_start = None
    for point in errors:
        total = requests.get(point["t"], 0.0)
        if total > 0 and point["value"] / total >= breach_threshold:
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
        "victim": victim_name,
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
