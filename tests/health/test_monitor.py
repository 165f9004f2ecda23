"""HealthMonitor wiring: heartbeats, app folding, gossip, shutdown."""

import pytest

from repro.core.deployment import build_collaboratory, build_single_server
from repro.health import STATUS_HEALTHY, STATUS_UNHEALTHY, STATUS_UNKNOWN
from repro.orb import CommFailure


@pytest.fixture()
def collab():
    c = build_single_server(app_hosts=1, client_hosts=1)
    c.run_bootstrap()
    yield c
    c.stop()


class TestHeartbeat:
    def test_heartbeats_advance_with_sim_time(self, collab):
        server = collab.server_of(0)
        before = server.health.counters["heartbeats"]
        collab.sim.run(until=collab.sim.now + 5.0)
        assert server.health.counters["heartbeats"] >= before + 9

    def test_server_marks_itself_healthy(self, collab):
        server = collab.server_of(0)
        collab.sim.run(until=collab.sim.now + 2.0)
        key = server.health.server_key(server.name)
        assert server.health.status_of(key) == STATUS_HEALTHY

    def test_app_proxy_tracked(self, collab):
        from repro.apps import SyntheticApp
        app = collab.add_app(0, SyntheticApp, "mon-app",
                             acl={"alice": "write"})
        collab.sim.run(until=collab.sim.now + 3.0)
        server = collab.server_of(0)
        key = server.health.app_key(app.app_id)
        assert server.health.status_of(key) == STATUS_HEALTHY
        # a stopped proxy misses heartbeats until it goes unhealthy
        server.local_proxies[app.app_id].active = False
        collab.sim.run(until=collab.sim.now + 3.0)
        assert server.health.status_of(key) == STATUS_UNHEALTHY

    def test_disabled_monitor_spawns_nothing(self):
        c = build_collaboratory(1, apps_hosts_per_domain=1,
                                client_hosts_per_domain=1,
                                health_enabled=False)
        c.run_bootstrap()
        server = c.server_of(0)
        collab_now = c.sim.now
        c.sim.run(until=collab_now + 3.0)
        assert server.health.counters["heartbeats"] == 0
        key = server.health.server_key(server.name)
        assert server.health.status_of(key) == STATUS_UNKNOWN
        for _ in range(3):  # a disabled monitor books nothing
            server.health.note_call("ghost", CommFailure("down"))
        assert not server.health.is_unhealthy_peer("ghost")
        assert server.health.model.statuses() == {}
        c.stop()

    def test_stop_interrupts_processes(self, collab):
        server = collab.server_of(0)
        procs = list(server.health._procs)
        assert procs and all(p.is_alive for p in procs)
        server.health.stop()
        # the interrupt is delivered on the next sim step; afterwards the
        # sim drains instead of the beat keeping it alive forever
        collab.sim.run()
        assert all(not p.is_alive for p in procs)


def test_a_tick_reads_the_p99_from_the_kept_order(monkeypatch):
    """A heartbeat costs what changed: with a full http reservoir that
    keeps taking samples (so slots are replaced), a tick after the first
    neither calls ``np.percentile`` nor re-sorts, and the p99 the latency
    SLO compares is still numpy's p99 of the samples at that tick."""
    import random

    import numpy as np

    from repro.health import HealthMonitor
    from repro.net import Network
    from repro.sim import Simulator
    from tests.conftest import equipped_server

    server = equipped_server(Network(Simulator()).add_host("solo"))
    monitor = HealthMonitor(server, period=0.5)
    server.attach_health(monitor)
    metrics = server.pipeline_metrics
    rng = random.Random(25)

    def traffic(n):
        for _ in range(n):
            metrics.observe("http", latency=rng.uniform(0.0, 0.6))

    read = []
    real_read = metrics.latency_percentile
    metrics.latency_percentile = (
        lambda plane, percent: read.append(real_read(plane, percent))
        or read[-1])
    traffic(1500)  # past the 1 024 slots
    monitor.tick()
    reservoir = metrics._latencies["http"]
    ordered = reservoir._ordered
    assert ordered is not None

    real_percentile = np.percentile

    def no_numpy(*_a, **_kw):
        raise AssertionError("a tick called np.percentile")

    monkeypatch.setattr(np, "percentile", no_numpy)
    moved = 0
    for tick in range(40):
        before = list(reservoir._samples)
        traffic(1 + tick % 7)
        moved += list(reservoir._samples) != before
        monitor.tick()
        assert reservoir._ordered is ordered == sorted(reservoir._samples)
        assert read[-1] == float(real_percentile(list(reservoir._samples), 99))
    assert moved >= 30  # slots were replaced on most ticks
    assert len(read) == 41
    assert monitor.counters["heartbeats"] == 41


class TestGossip:
    def test_exchange_merges_and_answers(self, collab):
        server = collab.server_of(0)
        collab.sim.run(until=collab.sim.now + 1.0)
        view = {"server": "peer-x", "time": collab.sim.now,
                "statuses": {"server:far": STATUS_UNHEALTHY}}
        answer = server.health.exchange("peer-x", view)
        assert answer["server"] == server.name
        assert "statuses" in answer
        # the gossiped component appears in the fleet view
        assert server.health.fleet_view()["server:far"] == STATUS_UNHEALTHY
        # receiving gossip proves the sender alive
        assert (server.health.status_of(server.health.server_key("peer-x"))
                == STATUS_HEALTHY)

    def test_local_observation_wins_over_gossip(self, collab):
        server = collab.server_of(0)
        collab.sim.run(until=collab.sim.now + 1.0)
        key = server.health.server_key(server.name)
        stale = {"server": "peer-x", "time": collab.sim.now + 100.0,
                 "statuses": {key: STATUS_UNHEALTHY}}
        server.health.exchange("peer-x", stale)
        # a peer's (even newer) claim about *us* loses to direct obs
        assert server.health.fleet_view()[key] == STATUS_HEALTHY

    def test_newest_stamp_wins_per_peer(self, collab):
        server = collab.server_of(0)
        server.health.merge_peer_view(
            "p", {"time": 5.0, "statuses": {"server:z": STATUS_UNHEALTHY}})
        server.health.merge_peer_view(
            "p", {"time": 2.0, "statuses": {"server:z": STATUS_HEALTHY}})
        assert server.health.fleet_view()["server:z"] == STATUS_UNHEALTHY

    def test_gossip_converges_across_deployment(self):
        c = build_collaboratory(2, apps_hosts_per_domain=1,
                                client_hosts_per_domain=1,
                                health_gossip_period=0.5)
        c.run_bootstrap()
        c.sim.run(until=c.sim.now + 4.0)
        a, b = c.server_of(0), c.server_of(1)
        assert a.health.counters["gossip_rounds"] > 0
        # each server's fleet view includes the other's self-status
        assert a.health.fleet_view()[
            a.health.server_key(b.name)] == STATUS_HEALTHY
        assert b.health.fleet_view()[
            b.health.server_key(a.name)] == STATUS_HEALTHY
        c.stop()


class TestSnapshotSurface:
    def test_snapshot_in_metrics_registry(self, collab):
        collab.sim.run(until=collab.sim.now + 2.0)
        snap = collab.metrics_registry().snapshot()
        server = collab.server_of(0)
        health = snap[f"health[{server.name}]"]
        assert health["counts"][STATUS_HEALTHY] >= 1
        assert "slo" in health and "counters" in health

    def test_server_metrics_registry_includes_health_and_log(self, collab):
        server = collab.server_of(0)
        collab.sim.run(until=collab.sim.now + 1.0)
        snap = server.metrics_registry().snapshot()
        assert f"health[{server.name}]" in snap
        assert f"log[{server.name}]" in snap
