"""Scripted client behaviours and application farms.

These are the browser users of §6.1's experiments: *monitors* poll their
server on a fixed cadence; *engineers* additionally issue steering commands
and wait for responses.  Both record client-visible latencies into a
:class:`~repro.metrics.LatencyRecorder`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.apps import SyntheticApp
from repro.client import DiscoverPortal, PortalError
from repro.metrics import LatencyRecorder
from repro.steering import AppConfig
from repro.web import HttpError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.deployment import Collaboratory
    from repro.steering import SteerableApplication


#: an interaction-dominant application — one short step per phase, a wide
#: interaction window — so command latency measures the middleware path
#: (HTTP + server + optional CORBA relay), not compute-phase buffering
INTERACTIVE_APP = AppConfig(steps_per_phase=1, step_time=0.005,
                            interaction_window=0.25,
                            command_service_time=0.002)


def run_process(sim, generator, name: Optional[str] = None):
    """Spawn ``generator`` and run the clock until it ends; returns its
    return value."""
    return sim.run(until=sim.spawn(generator, name=name))


def bench_app_config(update_period: float = 0.5,
                     steps_per_phase: int = 10) -> AppConfig:
    """Application cadence used across benchmarks: one update per
    ``update_period`` of virtual time (compute phase + interaction window)."""
    step_time = update_period / (steps_per_phase + 1)
    return AppConfig(steps_per_phase=steps_per_phase, step_time=step_time,
                     interaction_window=step_time,
                     command_service_time=0.002)


def make_app_farm(collab: "Collaboratory", n_apps: int, *,
                  domain_index: int = 0, user: str = "bench",
                  update_period: float = 0.5,
                  payload_floats: int = 16) -> List["SteerableApplication"]:
    """Register ``n_apps`` synthetic applications in one domain.

    All grant ``user`` write access, so one bench client can reach them all.
    """
    apps = []
    for i in range(n_apps):
        app = collab.add_app(
            domain_index, SyntheticApp, f"bench-app-{domain_index}-{i}",
            acl={user: "write"},
            config=bench_app_config(update_period),
            payload_floats=payload_floats)
        apps.append(app)
    return apps


def polling_client(portal: DiscoverPortal, app_id: str, *, user: str,
                   duration: float, poll_interval: float,
                   recorder: LatencyRecorder, warmup: float = 0.0):
    """Process: log in, open the app, poll on a cadence, record poll RTTs.

    The client-visible metric of E2: the round-trip time of each poll
    request grows as the server CPU saturates.
    """
    sim = portal.sim
    yield from portal.login(user)
    yield from portal.open(app_id)
    deadline = sim.now + duration
    warm_until = sim.now + warmup
    while sim.now < deadline:
        t0 = sim.now
        try:
            yield from portal.poll(max_items=16)
        except HttpError:
            break
        if sim.now >= warm_until:
            recorder.record("poll_rtt", sim.now - t0)
        remaining = deadline - sim.now
        if remaining <= 0:
            break
        yield sim.timeout(min(poll_interval, remaining))


def steering_client(portal: DiscoverPortal, app_id: str, *, user: str,
                    duration: float, command_interval: float,
                    recorder: LatencyRecorder,
                    poll_interval: float = 0.05):
    """Process: repeatedly read a parameter and wait for the response.

    Records command→response latency — the E6 metric (response latency for
    local vs remote applications).
    """
    sim = portal.sim
    yield from portal.login(user)
    session = yield from portal.open(app_id)
    deadline = sim.now + duration
    while sim.now < deadline:
        t0 = sim.now
        try:
            request_id = yield from session.command("get_param",
                                                    {"name": "gain"})
            yield from portal.wait_response(request_id, timeout=duration,
                                            poll_interval=poll_interval)
        except (PortalError, HttpError):
            break
        recorder.record("steer_rtt", sim.now - t0)
        remaining = deadline - sim.now
        if remaining <= 0:
            break
        yield sim.timeout(min(command_interval, remaining))


def update_watching_client(portal: DiscoverPortal, app_id: str, *,
                           user: str, duration: float,
                           poll_interval: float,
                           recorder: LatencyRecorder):
    """Process: poll and record app-timestamp→client-receipt update latency.

    The E5 metric: how stale an update is by the time a collaborating
    client sees it (includes server fan-out, WAN pushes, and poll delay).
    """
    sim = portal.sim
    yield from portal.login(user)
    yield from portal.open(app_id)
    deadline = sim.now + duration
    seen = 0
    while sim.now < deadline:
        yield from portal.poll(max_items=32)
        while seen < len(portal.updates):
            update = portal.updates[seen]
            seen += 1
            if update.timestamp > 0:
                recorder.record("update_latency",
                                sim.now - update.timestamp)
        remaining = deadline - sim.now
        if remaining <= 0:
            break
        yield sim.timeout(min(poll_interval, remaining))


def resilient_steering_client(portal: DiscoverPortal, app_id: str, *,
                              user: str, duration: float,
                              command_interval: float, counts: dict,
                              response_timeout: float):
    """Process: steer on a cadence, surviving server failures.

    Unlike :func:`steering_client` (which stops on the first error — the
    steady-state E6 shape), this client treats failures as data: each
    command either lands (``counts["ok"]``) or fails
    (``counts["failed"]``), and the loop always continues — the E10
    fault-injection workload that measures failover from the client's
    chair.
    """
    sim = portal.sim
    counts.update(ok=0, failed=0)
    yield from portal.login(user)
    session = yield from portal.open(app_id)
    deadline = sim.now + duration
    while sim.now < deadline:
        try:
            request_id = yield from session.command("get_param",
                                                    {"name": "gain"})
            yield from portal.wait_response(request_id,
                                            timeout=response_timeout,
                                            poll_interval=0.05)
        except (PortalError, HttpError):
            counts["failed"] += 1
        else:
            counts["ok"] += 1
        remaining = deadline - sim.now
        if remaining <= 0:
            break
        yield sim.timeout(min(command_interval, remaining))
