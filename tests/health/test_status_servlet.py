"""GET /status through the real HTTP pipeline (JSON + Prometheus)."""

import pytest

from repro.bench.scenarios import scrape_status
from repro.core.deployment import build_single_server
from repro.health import STATUS_HEALTHY, parse_prometheus


@pytest.fixture()
def collab():
    c = build_single_server(app_hosts=1, client_hosts=1)
    c.run_bootstrap()
    from repro.apps import SyntheticApp
    c.add_app(0, SyntheticApp, "status-app", acl={"alice": "write"})
    c.sim.run(until=c.sim.now + 3.0)
    yield c
    c.stop()


def test_status_json_view(collab):
    server = collab.server_of(0)
    body = scrape_status(collab)
    assert body["server"] == server.name
    key = f"server:{server.name}"
    assert body["health"]["components"][key]["status"] == STATUS_HEALTHY
    assert body["health"]["fleet"][key] == STATUS_HEALTHY
    assert "request_error_rate" in body["slo"]
    assert body["alerts"] == []


def test_status_prom_view_parses(collab):
    server = collab.server_of(0)
    scrape_status(collab)  # at least one HTTP request in the store
    text = scrape_status(collab, params={"format": "prom"})
    assert isinstance(text, str)
    samples = parse_prometheus(text)
    key = ("repro_health_status",
           (("component", f"server:{server.name}"),
            ("server", server.name)))
    assert samples[key] == 1.0
    # the full registry rides along: pipeline counters are in there
    assert any(name.startswith("repro_pipeline_")
               for name, _labels in samples)
    # ...and the time-series store's latency histograms, as proper
    # _bucket/_sum/_count families labelled with this instance
    base = "repro_ts_pipeline_latency_http"
    assert f"# TYPE {base} histogram" in text
    inst = ("instance", server.name)
    count = samples[(f"{base}_count", (inst,))]
    assert count >= 1.0
    assert samples[(f"{base}_bucket", (inst, ("le", "+Inf")))] == count


def test_status_timeseries_views(collab):
    server = collab.server_of(0)
    scrape_status(collab)  # at least one HTTP request in the store
    body = scrape_status(collab, path="/status/timeseries")
    assert body["server"] == server.name
    assert body["bucket_width"] == server.timeseries.bucket_width
    series = body["series"]
    # a request is one latency point: no separate request counter
    assert "pipeline.requests.http" not in series
    lat = series["pipeline.latency.http"]
    assert lat["kind"] == "histogram"
    assert lat["count"] >= 1 and lat["p50"] <= lat["p99"] <= lat["max"]

    # one series' bucket dump, with an explicit quantile
    body = scrape_status(collab, path="/status/timeseries",
                         params={"series": "pipeline.latency.http",
                                 "q": "0.5"})
    assert body["kind"] == "histogram"
    assert body["points"] and all(p["count"] >= 1 for p in body["points"])

    # unknown series maps to 400 through the error envelope
    from repro.web.client import HttpError
    with pytest.raises(HttpError):
        scrape_status(collab, path="/status/timeseries",
                      params={"series": "no.such.series"})


def test_status_app_detail(collab):
    server = collab.server_of(0)
    app_id = next(iter(server.local_proxies))
    body = scrape_status(collab, path="/status/app",
                         params={"app_id": app_id})
    assert body["app_id"] == app_id
    assert body["status"] == STATUS_HEALTHY
    assert body["name"] == "status-app"
    assert body["active"] is True
    assert "commands_forwarded" in body


def test_status_alerts_view(collab):
    body = scrape_status(collab, path="/status/alerts")
    assert body["active"] == []
    assert body["history"] == []


def test_scrape_is_itself_metered(collab):
    """The status endpoint goes through the interceptor pipeline."""
    server = collab.server_of(0)
    from repro.pipeline.core import PLANE_HTTP
    before = server.pipeline_metrics.requests(PLANE_HTTP)
    scrape_status(collab)
    assert server.pipeline_metrics.requests(PLANE_HTTP) == before + 1
