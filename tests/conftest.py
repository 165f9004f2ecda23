"""Shared test helpers."""

from __future__ import annotations

import pytest

from repro.sim import Simulator


def drive(sim: Simulator, generator):
    """Run ``generator`` as a process and return its result.

    Runs the simulation until the process finishes (other scheduled work may
    remain pending).
    """
    proc = sim.spawn(generator)
    return sim.run(until=proc)


def route(net, src: str, dst: str) -> list:
    """Hop sequence (host names) of ``net``'s route from ``src`` to
    ``dst``."""
    path = [src]
    for link in net._links(src, dst):
        path.append(link.other(path[-1]))
    return path


def path_latency(net, src: str, dst: str) -> float:
    """Sum of the propagation latencies along ``net``'s route from ``src``
    to ``dst`` (no queueing, no transfer)."""
    return sum(link.latency for link in net._links(src, dst))


def equipped_server(host, tracer=None):
    """A standalone ``DiscoverServer`` handed what a deployment would build
    for it, the heartbeat apart: a ledger (joined to ``tracer``), a
    time-series registry and an in-memory journal of its own."""
    from repro.core.server import DiscoverServer
    from repro.metrics import StorageMetrics
    from repro.obs import RequestCostLedger, TimeSeriesRegistry
    from repro.storage import MemoryBackend, StateJournal

    sim = host.sim
    ledger = RequestCostLedger(sim)
    if tracer is not None:
        tracer.ledger = ledger
    timeseries = TimeSeriesRegistry(clock=lambda: sim.now)
    journal = StateJournal(MemoryBackend(), clock=lambda: sim.now,
                           metrics=StorageMetrics(timeseries, ledger))
    return DiscoverServer(host, tracer=tracer, ledger=ledger,
                          timeseries=timeseries, journal=journal)


def polling_miniature():
    """An E2-shaped miniature — one server, one application, three portals
    polling every 0.25 s for five simulated seconds — run to the end.
    Returns ``(collab, recorder)``; the recorder holds 57 ``poll_rtt``."""
    from repro import build_single_server
    from repro.bench.workload import make_app_farm, polling_client
    from repro.metrics import LatencyRecorder

    collab = build_single_server(client_hosts=4)
    collab.run_bootstrap()
    sim = collab.sim
    (app,) = make_app_farm(collab, 1, user="bench")
    sim.run(until=sim.now + 2.0)
    recorder = LatencyRecorder(sim)
    for _ in range(3):
        sim.spawn(polling_client(collab.add_portal(0), app.app_id,
                                 user="bench", duration=5.0,
                                 poll_interval=0.25, recorder=recorder))
    sim.run(until=sim.now + 6.0)
    return collab, recorder


@pytest.fixture
def sim() -> Simulator:
    return Simulator()
