"""The six benchmark workloads.

Each workload is a function ``(seed, scale, workdir) -> (window, finish)``.
Calling it does the set-up (build, bootstrap, registration, 5 simulated
seconds of warm-up); ``window()`` is the timed part, a generator that
yields between slices of simulated time so the harness can read the
host's speed as it goes; ``finish()`` checks the outputs (raising
:class:`CheckFailed`) and returns an :class:`Outcome`.  ``scale`` multiplies the simulated duration or the
operation count (1.0 = full size, 0.1 = the ``--quick`` size).

All traffic is generated in *simulated* time inside the one process, so
an open-loop generator is never late by construction.  The seed drives
client start offsets, the jitter on intervals, steered values and the
fleet ``TrafficSpec``; the program receives only the generated inputs.
Drivers call public surfaces only (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

from repro import PortalError, build_collaboratory, build_single_server
from repro.apps import SyntheticApp
from repro.bench.fleet import build_fleet, publish_population
from repro.bench.scenarios import pipeline_counters
from repro.bench.traffic import (
    TrafficSpec,
    constant,
    exponential,
    session_plans,
)
from repro.bench.workload import bench_app_config
from repro.metrics import LatencyRecorder
from repro.net.costs import LinkSpec
from repro.orb import OrbError
from repro.sim.rng import DeterministicRNG
from repro.steering import AppConfig
from repro.storage import JsonlBackend
from repro.web import HttpError

#: simulated seconds every workload runs between set-up and the window
WARMUP = 5.0

#: slices a timed window is cut into (the harness calibrates between them)
SLICES = 20

#: an application that spends its time in the interaction phase, so a
#: command's latency is the middleware path, not compute-phase buffering
INTERACTIVE = AppConfig(steps_per_phase=1, step_time=0.005,
                        interaction_window=0.25, command_service_time=0.002)


class CheckFailed(Exception):
    """A workload's outputs were wrong; the run does not count."""


@dataclass
class Outcome:
    """What one timed window did, in modelled terms only."""

    ops: int
    attempted: int
    failed: int
    #: client-visible simulated latencies, seconds
    latencies: List[float]
    #: boundary counts read from public accessors after the window
    counters: Dict[str, float]


Prepared = Tuple[Callable[[], Iterator[None]], Callable[[], Outcome]]


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class _Boundary:
    """Window deltas of the kernel and network counters, plus the planes'
    end-of-run totals, under the per-layer metric names."""

    def __init__(self, sim, net) -> None:
        self.sim, self.net = sim, net
        self.events0 = sim.events_dispatched
        trace = net.trace
        self.frames0 = trace.total.messages
        self.bytes0 = trace.total.bytes
        self.wan_frames0 = trace.wan_messages
        self.wan_bytes0 = trace.wan_bytes

    def counters(self, servers, tracer=None) -> Dict[str, float]:
        row = pipeline_counters(servers, tracer=tracer)
        trace = self.net.trace
        stub_reads = row["dir_stub_hits"] + row["dir_stub_misses"]
        return {
            "sim.events": self.sim.events_dispatched - self.events0,
            "sim.now": self.sim.now,
            "net.frames": trace.total.messages - self.frames0,
            "net.bytes": trace.total.bytes - self.bytes0,
            "net.wan_frames": trace.wan_messages - self.wan_frames0,
            "net.wan_bytes": trace.wan_bytes - self.wan_bytes0,
            "net.dropped_frames": trace.dropped.messages,
            "pipeline.http_requests": row["http_requests"],
            "pipeline.orb_requests": row["orb_requests"],
            "pipeline.channel_requests": row["channel_requests"],
            "pipeline.errors": row["pipeline_errors"],
            "federation.subscribes": row["fed_subscribes"],
            "federation.invalidations": row["fed_invalidations"],
            "directory.lookups": row["dir_lookups"] + row["dir_locates"],
            "directory.stub_hit_ratio": (row["dir_stub_hits"] / stub_reads
                                         if stub_reads else 0.0),
            "directory.read_failovers": row["dir_read_failovers"],
            "storage.wal_appends": row["storage_appends"],
            "storage.snapshots": row["storage_snapshots"],
            "storage.records_compacted": row["storage_compacted"],
            "storage.records_replayed": row["storage_replayed"],
            "storage.recover_wall_ms": 0.0,
            "obs.spans_recorded": row.get("spans_recorded", 0),
            "obs.spans_dropped": row.get("spans_dropped", 0),
            "obs.ts_points": row["ts_points"],
            "obs.cost_entries": row["cost_entries"],
            "obs.log_dropped": row["log_dropped"],
            "health.alerts_fired": row["alerts_fired"],
        }


def _links(rng: DeterministicRNG) -> LinkSpec:
    """Link latencies within 1% of the defaults, placed by the seed: the
    network is an input too, and every simulated latency moves with it."""
    return LinkSpec(lan_latency=rng.jitter(0.0005, 0.01),
                    wan_latency=rng.jitter(0.030, 0.01))


def _run_for(sim, seconds: float) -> None:
    sim.run(until=sim.now + seconds)


def _run_sliced(sim, t_end: float) -> Iterator[None]:
    """Run to ``t_end`` in :data:`SLICES` equal steps of simulated time."""
    t0 = sim.now
    for i in range(1, SLICES + 1):
        sim.run(until=t0 + (t_end - t0) * i / SLICES)
        yield


# ---------------------------------------------------------------------------
# app_updates / app_updates_bare — E1 shape, open loop
# ---------------------------------------------------------------------------

def _app_updates(seed: int, scale: float, planes: dict) -> Prepared:
    n_apps, period, duration = 30, 0.5, 120.0 * scale
    rng = DeterministicRNG(seed, "perf/app_updates")
    collab = build_collaboratory(1, apps_hosts_per_domain=max(4, n_apps // 4),
                                 spec=_links(rng), **planes)
    collab.run_bootstrap()
    sim, server = collab.sim, collab.server_of(0)
    # update periods spread evenly over 0.8..1.2 of ``period``, so the
    # applications drift through every alignment and the lag tail is a
    # property of the load; the seed only places each one's first update
    for i in range(n_apps):
        own_period = period * (0.8 + 0.4 * (i + 0.5) / n_apps)
        app = collab.add_app(0, SyntheticApp, f"perf-app-{i}",
                             acl={"bench": "write"},
                             config=bench_app_config(own_period),
                             payload_floats=16, start=False)
        sim.call_later(rng.uniform(0.0, own_period), app.start)
    _run_for(sim, WARMUP)
    _check(all(app.registered for app in collab.apps),
           "an application failed to register")
    recorder = server.recorder = LatencyRecorder(sim)
    sent0 = sum(app.update_seq for app in collab.apps)
    errors0 = server.pipeline_metrics.errors()
    boundary = _Boundary(sim, collab.net)

    def window() -> Iterator[None]:
        return _run_sliced(sim, sim.now + duration)

    def finish() -> Outcome:
        lags = recorder.samples("update_lag")
        sent = sum(app.update_seq for app in collab.apps) - sent0
        errors = server.pipeline_metrics.errors() - errors0
        _check(errors == 0, f"{errors} pipeline errors")
        _check(len(lags) >= 0.95 * sent,
               f"processed {len(lags)} of {sent} offered updates")
        return Outcome(ops=len(lags), attempted=sent, failed=errors,
                       latencies=lags,
                       counters=boundary.counters(collab.servers.values(),
                                                  collab.tracer))

    return window, finish


def app_updates(seed: int, scale: float, workdir: str) -> Prepared:
    return _app_updates(seed, scale, {})


def app_updates_bare(seed: int, scale: float, workdir: str) -> Prepared:
    return _app_updates(seed, scale, dict(
        trace_sampling="off", health_enabled=False, accounting_enabled=False))


# ---------------------------------------------------------------------------
# client_polls — E2 shape, closed loop
# ---------------------------------------------------------------------------

def client_polls(seed: int, scale: float, workdir: str) -> Prepared:
    n_clients, interval, duration = 30, 0.25, 150.0 * scale
    rng = DeterministicRNG(seed, "perf/client_polls")
    collab = build_single_server(client_hosts=max(4, n_clients // 4),
                                 spec=_links(rng))
    collab.run_bootstrap()
    sim = collab.sim
    app = collab.add_app(0, SyntheticApp, "perf-feed", acl={"bench": "write"},
                         config=bench_app_config(0.5), payload_floats=4096)
    _run_for(sim, 2.0)
    _check(app.registered, "the application failed to register")
    t_window = sim.now + WARMUP
    t_end = t_window + duration
    rtts: List[float] = []
    counts = {"failed": 0, "logged_in": 0}
    portals = [collab.add_portal(0) for _ in range(n_clients)]

    def client(portal, offset: float, jitter: DeterministicRNG):
        yield sim.timeout(offset)
        try:
            yield from portal.login("bench")
            yield from portal.open(app.app_id)
        except PortalError:
            return
        counts["logged_in"] += 1
        while sim.now < t_end:
            t0 = sim.now
            try:
                yield from portal.poll(max_items=16)
            except HttpError:
                counts["failed"] += 1
            else:
                if t0 >= t_window:
                    rtts.append(sim.now - t0)
            yield sim.timeout(jitter.jitter(interval, 0.2))

    for i, portal in enumerate(portals):
        sim.spawn(client(portal, rng.uniform(0.0, interval),
                         rng.child(f"client{i}")), name=f"perf-poll-{i}")
    sim.run(until=t_window)
    boundary = _Boundary(sim, collab.net)

    def window() -> Iterator[None]:
        return _run_sliced(sim, t_end)

    def finish() -> Outcome:
        _check(counts["logged_in"] == n_clients,
               f"{counts['logged_in']} of {n_clients} portals logged in")
        for portal in portals:
            seqs = [u.seq for u in portal.updates]
            _check(len(seqs) > 0 and seqs == list(
                range(seqs[0], seqs[0] + len(seqs))),
                f"portal on {portal.host.name} saw a gap in update seqs")
        return Outcome(ops=len(rtts), attempted=len(rtts) + counts["failed"],
                       failed=counts["failed"], latencies=rtts,
                       counters=boundary.counters(collab.servers.values(),
                                                  collab.tracer))

    return window, finish


# ---------------------------------------------------------------------------
# wan_steering — the paper's headline path, closed loop
# ---------------------------------------------------------------------------

def wan_steering(seed: int, scale: float, workdir: str) -> Prepared:
    n_domains, interval, duration = 3, 0.25, 130.0 * scale
    rng = DeterministicRNG(seed, "perf/wan_steering")
    collab = build_collaboratory(n_domains, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=4,
                                 spec=_links(rng),
                                 trace_sampling="always",
                                 # small enough that the bounded span
                                 # store evicts during the window
                                 trace_max_spans=20_000)
    collab.run_bootstrap()
    sim = collab.sim
    # two steered applications, homed in domains 0 and 1: one lock each,
    # so commands relay both ways across the WAN
    homes = [collab.server_of(d) for d in (0, 1)]
    apps = [collab.add_app(d, SyntheticApp, f"perf-steered-{d}",
                           acl={"bench": "write"}, config=INTERACTIVE)
            for d in (0, 1)]
    _run_for(sim, 2.0)
    _check(all(app.registered for app in apps),
           "an application failed to register")
    t_window = sim.now + WARMUP
    t_end = t_window + duration
    rtts: List[float] = []
    counts = {"failed": 0, "ready": 0, "wrong_value": 0, "two_holders": 0}
    # per application, the steerers that believe they hold its lock
    driving: List[List[str]] = [[], []]

    def command(portal, session, name: str, args: dict):
        """One steering command; returns its result, or None on failure."""
        t0 = sim.now
        try:
            request_id = yield from session.command(name, args)
            msg = yield from portal.wait_response(request_id, timeout=30.0,
                                                  poll_interval=0.05)
        except (PortalError, HttpError):
            counts["failed"] += 1
            return None
        if t0 >= t_window:
            rtts.append(sim.now - t0)
        return msg.result

    def steerer(portal, which: int, offset: float, draws: DeterministicRNG):
        app_id, inside = apps[which].app_id, driving[which]
        yield sim.timeout(offset)
        yield from portal.login("bench")
        session = yield from portal.open(app_id)
        counts["ready"] += 1
        while sim.now < t_end:
            yield from session.wait_lock(timeout=120.0)
            inside.append(session.client_id)
            if (len(inside) != 1 or not homes[which].locks.holds(
                    app_id, session.client_id)):
                counts["two_holders"] += 1
            value = round(draws.uniform(0.0, 100.0), 3)
            yield from command(portal, session, "set_param",
                               {"name": "gain", "value": value})
            seen = yield from command(portal, session, "get_param",
                                      {"name": "gain"})
            if seen is not None and seen != value:
                counts["wrong_value"] += 1
            inside.remove(session.client_id)
            yield from session.release_lock()
            yield sim.timeout(draws.jitter(interval, 0.2))

    def watcher(portal, which: int, offset: float, draws: DeterministicRNG):
        yield sim.timeout(offset)
        yield from portal.login("bench")
        yield from portal.open(apps[which].app_id)
        counts["ready"] += 1
        while sim.now < t_end:
            yield from portal.poll(max_items=32)
            yield sim.timeout(draws.jitter(interval, 0.2))

    # per domain: one steerer and one watcher for each application
    n_portals = 0
    for d in range(n_domains):
        for role, which in ((steerer, 0), (steerer, 1),
                            (watcher, 0), (watcher, 1)):
            sim.spawn(role(collab.add_portal(d), which,
                           rng.uniform(0.0, interval),
                           rng.child(f"portal{n_portals}")),
                      name=f"perf-{role.__name__}-{n_portals}")
            n_portals += 1
    sim.run(until=t_window)
    boundary = _Boundary(sim, collab.net)

    def window() -> Iterator[None]:
        return _run_sliced(sim, t_end)

    def finish() -> Outcome:
        _check(counts["ready"] == n_portals,
               f"{counts['ready']} of {n_portals} portals opened their app")
        _check(counts["wrong_value"] == 0,
               f"{counts['wrong_value']} get_param answers were not the "
               "value just set under the lock")
        _check(counts["two_holders"] == 0,
               f"a lock had two holders {counts['two_holders']} times")
        return Outcome(ops=len(rtts), attempted=len(rtts) + counts["failed"],
                       failed=counts["failed"], latencies=rtts,
                       counters=boundary.counters(collab.servers.values(),
                                                  collab.tracer))

    return window, finish


# ---------------------------------------------------------------------------
# fleet_sessions — E11 shape, open loop
# ---------------------------------------------------------------------------

def fleet_sessions(seed: int, scale: float, workdir: str) -> Prepared:
    n_servers, n_sessions = 20, max(1, round(3500 * scale))
    duration = 3.0 * n_sessions / (80.0 * 4)  # ≈50% of one shard CPU
    rng = DeterministicRNG(seed, "perf/fleet_sessions")
    fleet = build_fleet(n_servers, directory_shards=4, directory_replicas=2,
                        spec=_links(rng))
    sim = fleet.sim
    population = sim.run(until=sim.spawn(
        publish_population(fleet, n_apps=4 * n_servers, n_users=400,
                           rng=rng.child("population")),
        name="perf-publish"))
    _run_for(sim, WARMUP)
    spec = TrafficSpec(total_sessions=n_sessions, duration=duration,
                       ops_per_session=constant(2),
                       think_time=exponential(0.1), app_mix="uniform",
                       seed=seed)
    lookups: List[float] = []
    counts = {"done": 0, "failed": 0, "misses": 0}

    def session(server, plan):
        try:
            client_id = yield from server.client_login(plan.user)
            for app_id, think in zip(plan.apps, plan.thinks):
                yield sim.timeout(think)
                t0 = sim.now
                home = yield from server.directory.locate_app(app_id)
                lookups.append(sim.now - t0)
                if home != population.homes[app_id]:
                    counts["misses"] += 1
            server.client_logout(client_id)
        except OrbError:
            counts["failed"] += 1
        else:
            counts["done"] += 1

    def arrivals():
        plans = session_plans(spec, population.users, population.app_ids,
                              [s.name for s in fleet.servers],
                              rng=rng.child("traffic"))
        for gap, plan in plans:
            yield sim.timeout(gap)
            sim.spawn(session(fleet.by_name[plan.edge], plan),
                      name="perf-session")

    boundary = _Boundary(sim, fleet.net)

    def window() -> Iterator[None]:
        sim.spawn(arrivals(), name="perf-arrivals")
        deadline = sim.now + duration + 120.0
        while (counts["done"] + counts["failed"] < n_sessions
               and sim.now < deadline):
            _run_for(sim, duration / SLICES)
            yield

    def finish() -> Outcome:
        _check(counts["done"] == n_sessions,
               f"{counts['done']} of {n_sessions} sessions completed")
        _check(counts["misses"] == 0,
               f"{counts['misses']} locates disagreed with the published "
               "homes")
        counters = boundary.counters(fleet.servers)
        fleet.stop()
        return Outcome(ops=counts["done"], attempted=n_sessions,
                       failed=counts["failed"], latencies=lookups,
                       counters=counters)

    return window, finish


# ---------------------------------------------------------------------------
# crash_recovery — E12 shape: write the archive, crash, read it back
# ---------------------------------------------------------------------------

def crash_recovery(seed: int, scale: float, workdir: str) -> Prepared:
    n_commands, interval = max(1, round(1000 * scale)), 0.1
    rng = DeterministicRNG(seed, "perf/crash_recovery")
    collab = build_collaboratory(
        2, apps_hosts_per_domain=1, client_hosts_per_domain=1,
        spec=_links(rng),
        storage_backend_factory=lambda name: JsonlBackend(
            f"{workdir}/{name}"),
        storage_snapshot_every=64)
    collab.run_bootstrap()
    sim = collab.sim
    app = collab.add_app(1, SyntheticApp, "perf-recovered",
                         acl={"bench": "write", "observer": "read"},
                         config=INTERACTIVE)
    _run_for(sim, 2.0)
    _check(app.registered, "the application failed to register")
    app_id = app.app_id
    victim = collab.server_of(1)
    driver, waiter = collab.add_portal(1), collab.add_portal(1)
    state: dict = {}

    def join(portal, key: str):
        yield from portal.login("bench")
        session = yield from portal.open(app_id)
        yield from session.join_group("scientists")
        state[key + "_lock"] = yield from session.acquire_lock()
        state[key] = session

    for portal, key in ((driver, "driver"), (waiter, "waiter")):
        sim.run(until=sim.spawn(join(portal, key), name=f"perf-{key}"))
    _check((state["driver_lock"], state["waiter_lock"])
           == ("granted", "queued"), f"lock set-up went wrong: {state}")
    _run_for(sim, WARMUP)
    rtts: List[float] = []
    counts = {"failed": 0}
    result: dict = {}

    def facts(server) -> dict:
        return {"interactions": server.archive.interaction_count(app_id),
                "holder": server.locks.holder_of(app_id),
                "queue": server.locks.queue_length(app_id),
                "members_all": server.collab.members_of(app_id),
                "members_sci": server.collab.members_of(app_id,
                                                        "scientists")}

    def drive():
        session = state["driver"]
        for i in range(n_commands):
            yield sim.timeout(rng.jitter(interval, 0.2))
            t0 = sim.now
            try:
                # the parameter's range is 0..100, hence the cycle
                yield from session.set_param("gain", float(i % 100))
            except (PortalError, HttpError):
                counts["failed"] += 1
            else:
                rtts.append(sim.now - t0)

    def latecomer(portal):
        yield from portal.login("observer")
        session = yield from portal.open(app_id)
        result["catchup"] = yield from session.catchup(n=100)
        result["replay"] = yield from session.replay_app_log()

    boundary = _Boundary(sim, collab.net)

    def window() -> Iterator[None]:
        driving = sim.spawn(drive(), name="perf-drive")
        while driving.is_alive:
            _run_for(sim, n_commands * (interval + 0.3) / SLICES)
            yield
        result["pre"] = facts(victim)
        victim.stop()
        _run_for(sim, 1.0)
        server2, report = collab.restart_server(victim.name)
        collab.run_bootstrap()
        _run_for(sim, 4.0)
        result["post"] = facts(server2)
        result["report"] = report
        sim.run(until=sim.spawn(latecomer(collab.add_portal(0)),
                                name="perf-latecomer"))
        result["host_log"] = server2.archive.replay_app_log(app_id,
                                                            "observer")
        yield

    def finish() -> Outcome:
        pre, post = result["pre"], result["post"]
        _check(pre["interactions"] >= len(rtts) > 0,
               f"{pre['interactions']} interactions archived for "
               f"{len(rtts)} answered commands")
        _check(post == pre, f"recovered state {post} != pre-crash {pre}")
        # the application keeps logging while the reply crosses the WAN, so
        # compare against the host's log as of the last record replayed
        replay = result["replay"]
        host_log = [r for r in result["host_log"]
                    if replay and r["at"] <= replay[-1]["at"]]
        _check(len(replay) > 0 and replay == host_log,
               f"latecomer replayed {len(replay)} records, the host's app "
               f"log held {len(host_log)} by then")
        _check(len(result["catchup"]) > 0, "latecomer catch-up was empty")
        servers = list(collab.servers.values()) + [victim]
        counters = boundary.counters(servers, collab.tracer)
        counters["storage.recover_wall_ms"] = result["report"].wall_ms
        for backend in collab.storage.values():
            backend.close()
        return Outcome(ops=len(rtts), attempted=n_commands,
                       failed=counts["failed"], latencies=rtts,
                       counters=counters)

    return window, finish


WORKLOADS: Dict[str, Callable[[int, float, str], Prepared]] = {
    "app_updates": app_updates,
    "app_updates_bare": app_updates_bare,
    "client_polls": client_polls,
    "wan_steering": wan_steering,
    "fleet_sessions": fleet_sessions,
    "crash_recovery": crash_recovery,
}
