"""E13: the kill-and-recover drill observed through the telemetry plane.

Every assertion here reads the *store* (``query()`` output / merged
registries), not live collectors — the point of the experiment is that
post-hoc fleet-wide analysis works.
"""

import random

import pytest

from repro.bench.scenarios import run_telemetry_drill
from repro.obs import TimeSeriesRegistry


@pytest.fixture(scope="module")
def drill():
    row, collab, merged = run_telemetry_drill()
    yield row, collab, merged
    collab.stop()


def test_breach_within_one_bucket_of_kill(drill):
    row, _collab, _merged = drill
    assert row["breach_delay_s"] is not None
    assert abs(row["breach_delay_s"]) <= row["bucket_width_s"]


def test_p99_recovers_within_ten_percent(drill):
    row, _collab, _merged = drill
    assert row["p99_baseline_ms"] > 0
    assert 0.9 <= row["p99_ratio"] <= 1.1


def test_client_survived_the_outage(drill):
    row, _collab, _merged = drill
    assert row["commands_failed"] >= 1  # the kill was visible
    assert row["commands_ok"] > 10 * row["commands_failed"]


def test_merge_is_order_independent(drill):
    """Fleet quantiles are identical whether the per-server registries
    merge in name order, reversed, or shuffled — the exact-merge
    guarantee that makes cross-server aggregation trustworthy."""
    _row, collab, merged = drill
    registries = [s.timeseries for s in collab.servers.values()]
    reordered = list(registries)
    random.Random(3).shuffle(reordered)
    for other in (TimeSeriesRegistry.merged(reversed(registries)),
                  TimeSeriesRegistry.merged(reordered)):
        for name in other.names():
            if other.kind(name) == "histogram":
                a = other.histogram_summary(name)
                b = TimeSeriesRegistry.merged(registries).histogram_summary(
                    name)
                assert a["count"] == b["count"]
                for key in ("p50", "p90", "p99", "max"):
                    assert a[key] == b[key]
            else:
                assert (other.query(name, "sum")
                        == TimeSeriesRegistry.merged(registries).query(
                            name, "sum"))
    # the fleet view retains the dead victim's pre-kill history, so it
    # holds strictly more recorded points than the live servers alone
    live_only = TimeSeriesRegistry.merged(registries)
    assert merged.snapshot()["points"] > live_only.snapshot()["points"]


def test_merged_registry_round_trips(drill):
    _row, _collab, merged = drill
    doc = merged.to_dict()
    reloaded = TimeSeriesRegistry.from_dict(doc)
    assert reloaded.to_dict() == doc
    assert (reloaded.query("pipeline.latency.http", "quantile", q=0.99)
            == merged.query("pipeline.latency.http", "quantile", q=0.99))


@pytest.mark.usefixtures("session_ids_kept")
def test_a_fault_after_the_run_is_refused():
    """The kill (and so the restart after the outage) must land before the
    run ends; past it the drill refuses with the parameters named."""
    with pytest.raises(ValueError, match="kill_at \\+ outage"):
        run_telemetry_drill(duration=6.0, kill_at=20.0)
    with pytest.raises(ValueError, match="kill_at \\+ outage"):
        run_telemetry_drill(duration=6.0, kill_at=6.5, outage=1.5)


def test_each_alert_pair_fires_once_per_outage(drill):
    """The full drill's 0.25 s ticks into 1 s buckets: the request page
    holds from the first failed tick until the 1 s window has cleared,
    with no resolve and re-fire on a bucket boundary in between."""
    row, collab, _merged = drill
    log = collab.servers["d0-server"].health.alerts.history()
    pairs = [(alert.slo, alert.severity) for alert in log]
    assert len(pairs) == len(set(pairs)) == 4
    lifetimes = {(alert.slo, alert.severity):
                 (alert.fired_at, alert.resolved_at) for alert in log}
    assert lifetimes[("request_error_rate", "page")] == (13.25, 15.25)
    assert lifetimes[("request_error_rate", "ticket")] == (13.25, 19.25)
    assert lifetimes[("deliver_command_p99", "ticket")] == (14.5, 30.75)
    assert lifetimes[("deliver_command_p99", "page")] == (14.75, 26.75)
    assert (row["alerts_fired"], row["alerts_resolved"]) == (4, 4)


@pytest.mark.usefixtures("session_ids_kept")
def test_alert_log_does_not_depend_on_the_bucket_width():
    """The 0.25 s heartbeat ticks into 0.25, 0.5 and 1 s buckets; the SLO
    windows are the engine's own samples, so every alert record — fire
    and resolve times, both burn rates, the exemplars — is the same."""
    logs = []
    for width in (0.25, 0.5, 1.0):
        _row, collab, _merged = run_telemetry_drill(
            duration=15.0, kill_at=5.0, bucket_width=width)
        collab.stop()
        logs.append([alert.to_record() for alert in
                     collab.servers["d0-server"].health.alerts.history()])
    assert logs[0]
    assert logs[1] == logs[0]
    assert logs[2] == logs[0]


def test_drill_is_deterministic(drill):
    row, _collab, _merged = drill
    again, collab2, _merged2 = run_telemetry_drill()
    collab2.stop()
    assert again == row
