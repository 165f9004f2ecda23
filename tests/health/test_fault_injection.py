"""E10 end-to-end: kill a server mid-run, watch the health plane react.

The acceptance sequence, all inside one deterministic virtual run:

1. the victim is marked ``unhealthy`` within the detection bound,
2. the client-facing router fails commands over to the healthy replica,
3. an SLO burn-rate alert fires with at least one trace exemplar,
4. the alert resolves once failover restores the error budget,
5. ``GET /status?format=prom`` still parses as valid Prometheus text.
"""

import pytest

from repro.bench.scenarios import run_fault_injection, scrape_status
from repro.health import STATUS_UNHEALTHY, parse_prometheus

#: generous but meaningful: a few gossip/relay timeouts past the
#: hysteresis threshold (down_after=3, gossip 0.5s, call timeout 0.5s)
DETECTION_BOUND_S = 5.0


@pytest.fixture(scope="module")
def fault_run():
    row, collab = run_fault_injection(duration=30.0, kill_at=10.0)
    yield row, collab
    collab.stop()


def test_victim_detected_within_bound(fault_run):
    row, _collab = fault_run
    assert row["victim_status"] == STATUS_UNHEALTHY
    assert row["detection_latency_s"] is not None
    assert 0.0 < row["detection_latency_s"] <= DETECTION_BOUND_S


def test_commands_fail_over_to_replica(fault_run):
    row, _collab = fault_run
    # the client kept steering through the outage: a couple of failures
    # while detection converged, then the replica carried the load
    assert row["health_failovers"] > 0
    assert row["commands_ok"] > row["commands_failed"]
    assert row["commands_failed"] >= 1
    # roughly one command per interval over the run: the outage did not
    # stall the client (duration 30 / interval 0.5, minus RTTs)
    assert row["commands_ok"] >= 30


def test_alert_fires_with_exemplars_and_resolves(fault_run):
    row, collab = fault_run
    client_server = collab.server_of(0)
    assert row["alerts_fired"] >= 1
    assert row["alerts_resolved"] >= 1
    fired = client_server.health.alerts.history()
    assert fired, "client-facing server fired no alerts"
    with_exemplars = [a for a in fired if a.exemplars]
    assert with_exemplars, "no alert carried a trace exemplar"
    # every exemplar is a real trace in the deployment's span store
    trace_ids = set(collab.tracer.store.trace_ids())
    for alert in with_exemplars:
        assert trace_ids.issuperset(alert.exemplars)
    # the error-rate page resolved after failover restored the budget
    error_pages = [a for a in fired if a.slo == "request_error_rate"
                   and a.severity == "page"]
    assert error_pages and all(a.resolved_at is not None
                               for a in error_pages)


#: every record of the client-facing server's alert log, as
#: ``(slo, severity, fired_at, resolved_at, burn_short, burn_long)``
ALERT_LOG = [
    ("request_error_rate", "page", 13.25, 15.25,
     333.33333333333303, 18.5185185185185),
    ("request_error_rate", "ticket", 13.25, 19.25,
     18.5185185185185, 7.142857142857136),
    ("deliver_command_p99", "ticket", 14.5, 30.75,
     9.999999999999991, 3.508771929824558),
    ("deliver_command_p99", "page", 14.75, 26.75,
     74.99999999999993, 14.999999999999986),
]


def test_alert_log_is_pinned(fault_run):
    """Both SLOs' lifetimes and burn rates, to the bit: the error-rate
    pair fires on the first failed tick, the latency pair once the
    timeouts reach the p99, and all four resolve."""
    _row, collab = fault_run
    log = collab.server_of(0).health.alerts.history()
    assert [(a.slo, a.severity, a.fired_at, a.resolved_at, a.burn_short,
             a.burn_long) for a in log] == ALERT_LOG


def test_prom_endpoint_valid_after_fault(fault_run):
    row, collab = fault_run
    text = scrape_status(collab, params={"format": "prom"})
    samples = parse_prometheus(text)
    client_server = collab.server_of(0)
    victim_key = ("repro_health_status",
                  (("component", f"server:{row['victim']}"),
                   ("server", client_server.name)))
    assert samples[victim_key] == 3.0  # unhealthy
    assert samples[("repro_alerts_fired", ())] >= 1.0


def test_a_kill_after_the_run_is_refused():
    """A kill the run cannot reach is refused, not reported: a row with
    ``kill_at_s`` 20 and a healthy victim would describe a kill that
    never happened."""
    with pytest.raises(ValueError, match="kill_at"):
        run_fault_injection(duration=6.0, kill_at=20.0)


def test_deterministic_replay():
    """Same parameters, fresh sim (and so fresh ids, whose digits are
    wire bytes) → bit-identical measured row."""
    row_a, collab_a = run_fault_injection(duration=12.0, kill_at=4.0)
    collab_a.stop()
    row_b, collab_b = run_fault_injection(duration=12.0, kill_at=4.0)
    collab_b.stop()
    assert row_a == row_b
