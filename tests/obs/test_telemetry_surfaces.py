"""The names the telemetry wiring exposes, pinned as literals.

Source labels, footer keys, ``/status/*`` keys and series names are the
contract the benchmark drivers, the bench footers and the operators'
dashboards read; rewiring how a plane gets its sink must not move any of
them.
"""

import pytest

from repro import AppConfig, build_collaboratory
from repro.apps import SyntheticApp
from repro.bench.scenarios import pipeline_counters, scrape_status
from repro.core.server import DiscoverServer
from repro.net import Network
from repro.obs import TimeSeriesRegistry
from repro.sim import Simulator
from repro.web.client import HttpClient
from tests.conftest import drive, equipped_server

PLANES = ("directory", "federation", "health", "log", "pipeline", "storage",
          "timeseries")

#: in the order a row lists them
FOOTER_KEYS = [
    "http_requests", "orb_requests", "channel_requests", "pipeline_errors",
    "sessions_expired",
    "fed_subscribes", "fed_unsubscribes", "fed_invalidations",
    "fed_poll_failovers", "fed_discovery_skipped",
    "dir_lookups", "dir_locates", "dir_publishes", "dir_read_failovers",
    "dir_write_skips", "dir_stale_retries", "dir_stub_hits",
    "dir_stub_misses",
    "storage_appends", "storage_snapshots", "storage_compacted",
    "storage_recoveries", "storage_replayed",
    "health_healthy", "health_degraded", "health_unhealthy",
    "health_unknown", "alerts_fired", "alerts_resolved", "health_failovers",
    "log_records", "log_dropped", "ts_series", "ts_points",
    "cost_requests", "cost_events", "cost_cpu_us", "cost_wan_bytes",
    "cost_dropped_frames", "cost_dropped_bytes", "cost_entries",
    "cost_top_principal",
]
TRACER_KEYS = ["spans_recorded", "traces_recorded", "spans_dropped"]


def solo_host():
    return Network(Simulator()).add_host("solo")


def test_server_registry_sources():
    server = equipped_server(solo_host())
    assert server.metrics_registry().sources() == sorted(
        [f"{plane}[solo]" for plane in PLANES] + ["costs[solo]"])


def test_server_registry_sources_without_accounting():
    server = DiscoverServer(solo_host(), timeseries=TimeSeriesRegistry())
    assert server.metrics_registry().sources() == [
        f"{plane}[solo]" for plane in PLANES]


def test_surfaces_of_a_server_handed_no_registry_and_no_ledger():
    """What is absent is left out under no new label, answers like
    ``/status/costs`` always did without a ledger, and counts zero."""
    server = DiscoverServer(solo_host())
    assert server.timeseries is None and server.ledger is None
    assert server.metrics_registry().sources() == [
        f"{plane}[solo]" for plane in PLANES if plane != "timeseries"]
    http = HttpClient(server.host, "solo")
    assert drive(server.sim, http.get("/status/timeseries")) == {
        "server": "solo", "timeseries": "disabled"}
    assert drive(server.sim, http.get("/status/costs")) == {
        "server": "solo", "accounting": "disabled"}
    prom = drive(server.sim, http.get("/status", {"format": "prom"}))
    assert "repro_pipeline" in prom and "_bucket" not in prom
    row = pipeline_counters([server])
    assert list(row) == FOOTER_KEYS
    assert row["http_requests"] == 3
    assert row["ts_series"] == row["ts_points"] == 0
    assert row["cost_requests"] == row["cost_entries"] == 0
    assert row["cost_top_principal"] == "-"
    server.stop()


@pytest.fixture(scope="module")
def collab():
    """Two domains, one app, and one login + one steering command."""
    c = build_collaboratory(2, apps_hosts_per_domain=1,
                            client_hosts_per_domain=1)
    c.run_bootstrap()
    app = c.add_app(0, SyntheticApp, "surface-app", acl={"alice": "write"},
                    config=AppConfig(steps_per_phase=2, step_time=0.01,
                                     interaction_window=0.05,
                                     command_service_time=0.001))
    c.sim.run(until=3.0)
    portal = c.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        yield from session.acquire_lock()
        yield from session.set_param("gain", 4.0)

    c.sim.run(until=c.sim.spawn(scenario()))
    yield c
    c.stop()


def test_collaboratory_registry_sources(collab):
    per_server = [f"{plane}[{name}]" for plane in PLANES
                  for name in ("d0-server", "d1-server")]
    assert collab.metrics_registry().sources() == sorted(
        per_server + ["costs", "spans", "traffic"])


def test_pipeline_counters_keys(collab):
    servers = list(collab.servers.values())
    assert list(pipeline_counters(servers)) == FOOTER_KEYS
    assert list(pipeline_counters(servers, collab.tracer)) == \
        FOOTER_KEYS + TRACER_KEYS


def test_status_costs_keys(collab):
    body = scrape_status(collab, path="/status/costs")
    assert set(body) == {"dimensions", "totals", "entries", "heavy_hitters",
                         "server", "time"}
    assert body["dimensions"] == [
        "requests", "events", "cpu_us", "lan_bytes", "wan_bytes",
        "wal_appends", "spans", "errors", "dropped_frames",
        "dropped_bytes"]


def test_status_timeseries_series_names(collab):
    body = scrape_status(collab, path="/status/timeseries")
    assert set(body) == {"server", "time", "bucket_width", "series"}
    assert set(body["series"]) == {
        "health.status.healthy",
        "pipeline.latency.channel", "pipeline.latency.http",
        "storage.wal_appends",
    }
