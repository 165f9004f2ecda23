"""The experiment table: every runnable experiment, declared once.

:data:`EXPERIMENTS` is the only place that names an experiment's quick
and full parameter sets, its table columns and its acceptance facts.
The CLI (``python -m repro run EXX``, ``status``, ``alerts``, ``tsdb``,
``costs``, ``profile``), the ``tools/`` gates and exporters, the
wall-clock harness's log export, CI and the tier-1 table test all obtain
their run from here::

    rows, live = EXPERIMENTS["E14"].run(quick=True, profiler=profiler)
    violated = EXPERIMENTS["E14"].check(rows)   # [] when every fact holds

``live`` is what the drill leaves for further reading — E10b's running
deployment (scrape ``/status`` from it), E13's fleet-merged time-series
store, E14's fleet (``fleet.ledger``) — and ``None`` elsewhere.

Acceptance facts are plain functions of the rows.  A spec layer with
assertions-as-queries (ROADMAP item 3's ``ScenarioSpec``) was considered
and not built: the four drills' facts are a store query (E13), a
pre/post state comparison (E12), a ledger partition (E14) and a row
ratio (E11), so its callers would still know everything they know now.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.bench.fleet import run_fleet_directory, run_noisy_neighbor_drill
from repro.bench.scenarios import (
    run_app_scalability,
    run_client_scalability,
    run_collab_scenario,
    run_fault_injection,
    run_recovery_drill,
    run_remote_vs_local,
    run_telemetry_drill,
)


@dataclass(frozen=True)
class Experiment:
    """One row of the table.  ``drill(**params)`` returns ``(row, live)``;
    ``quick`` / ``full`` hold one parameter set per table row."""

    claim: str
    columns: Tuple[str, ...]
    drill: Callable[..., tuple]
    quick: Tuple[dict, ...]
    full: Tuple[dict, ...]
    #: ``check(rows)`` → the violated acceptance facts, each named
    check: Callable[[List[dict]], List[str]] = lambda rows: []

    def run(self, quick: bool = False, **overrides):
        """Run every parameter set; ``overrides`` (``log_sink=``,
        ``profiler=``) pass through to the drill."""
        rows, live = [], None
        for params in (self.quick if quick else self.full):
            row, live = self.drill(**params, **overrides)
            rows.append(row)
        return rows, live


def _row_only(fn):
    return lambda **params: (fn(**params), None)


def _recovery_drill(**params):
    row, collab = run_recovery_drill(**params)
    collab.stop()
    return row, None


def _telemetry_drill(**params):
    row, collab, merged = run_telemetry_drill(**params)
    collab.stop()
    return row, merged


def _sweep(key, values, **common):
    return tuple({key: value, **common} for value in values)


def _violated(*facts) -> List[str]:
    """``facts`` are ``(statement, holds)`` pairs; the statements that
    do not hold."""
    return [statement for statement, holds in facts if not holds]


def _check_e10b(rows):
    (row,) = rows
    return _violated(
        ("victim_status == 'unhealthy' on the client-facing server",
         row["victim_status"] == "unhealthy"),
        ("detection_latency_s recorded, within 5 s of the kill",
         row["detection_latency_s"] is not None
         and 0.0 < row["detection_latency_s"] <= 5.0),
        ("health_failovers > 0 and commands_ok > commands_failed",
         row["health_failovers"] > 0
         and row["commands_ok"] > row["commands_failed"]),
        ("alerts_fired >= 1 and alerts_resolved >= 1",
         row["alerts_fired"] >= 1 and row["alerts_resolved"] >= 1))


def _check_e11(rows):
    p99 = [row["lookup_p99_ms"] for row in rows]
    per_row = [fact for row in rows for fact in (
        (f"sessions_done == sessions (n_servers={row['n_servers']})",
         row["sessions_done"] == row["sessions"]),
        (f"sessions_failed == 0 (n_servers={row['n_servers']})",
         row["sessions_failed"] == 0),
        (f"shard_load_max_over_mean <= 1.5 (n_servers={row['n_servers']})",
         row["shard_load_max_over_mean"] <= 1.5))]
    return _violated(
        *per_row,
        ("lookup_p99_ms independent of fleet size (max/min <= 1.25)",
         max(p99) <= 1.25 * min(p99)))


def _check_e12(rows):
    (row,) = rows
    return _violated(
        ("recovered_sessions == pre_sessions > 0",
         row["recovered_sessions"] == row["pre_sessions"] > 0),
        ("lock_preserved", row["lock_preserved"]),
        ("groups_preserved", row["groups_preserved"]),
        ("recovered_interactions == pre_interactions > 0",
         row["recovered_interactions"] == row["pre_interactions"] > 0),
        ("catchup_records == pre_interactions",
         row["catchup_records"] == row["pre_interactions"]))


def _check_e13(rows):
    (row,) = rows
    return _violated(
        ("breach_delay_s within one bucket_width_s of the kill",
         row["breach_delay_s"] is not None
         and abs(row["breach_delay_s"]) <= row["bucket_width_s"]),
        ("p99_ratio in [0.9, 1.1]", 0.9 <= row["p99_ratio"] <= 1.1))


def _check_e14(rows):
    (row,) = rows
    return _violated(
        ("partition_exact", row["partition_exact"]),
        ("flooder_top_all_dims", row["flooder_top_all_dims"]),
        ("detection_latency_max_s <= bucket_width_s",
         row["detection_latency_max_s"] is not None
         and row["detection_latency_max_s"] <= row["bucket_width_s"]))


_MODES = ("central", "p2p")

EXPERIMENTS: Dict[str, Experiment] = {
    "E1": Experiment(
        "applications per server (>40 supported)",
        ("n_apps", "mean_lag_ms", "p90_lag_ms", "throughput_per_s",
         "saturated"),
        _row_only(run_app_scalability),
        quick=_sweep("n_apps", (10, 40, 60), duration=10.0),
        full=_sweep("n_apps", (10, 20, 30, 40, 50, 60, 70), duration=20.0)),
    "E2": Experiment(
        "HTTP clients per server (~20, then degradation)",
        ("n_clients", "mean_rtt_ms", "p90_rtt_ms", "polls"),
        _row_only(run_client_scalability),
        quick=_sweep("n_clients", (5, 20, 30), duration=10.0),
        full=_sweep("n_clients", (5, 10, 15, 20, 25, 30, 40),
                    duration=20.0)),
    "E4": Experiment(
        "WAN collaboration traffic, central vs P2P",
        ("mode", "clients", "wan_messages", "wan_bytes",
         "mean_update_latency_ms"),
        _row_only(run_collab_scenario),
        quick=_sweep("mode", _MODES, duration=10.0, wan_latency=0.060),
        full=_sweep("mode", _MODES, duration=20.0, wan_latency=0.060)),
    "E5": Experiment(
        "client update latency vs WAN distance",
        ("mode", "wan_latency_ms", "mean_update_latency_ms",
         "p90_update_latency_ms"),
        _row_only(run_collab_scenario),
        quick=tuple(p for w in (0.020, 0.120)
                    for p in _sweep("mode", _MODES, duration=10.0,
                                    wan_latency=w)),
        full=tuple(p for w in (0.020, 0.060, 0.120)
                   for p in _sweep("mode", _MODES, duration=20.0,
                                   wan_latency=w))),
    "E6": Experiment(
        "steering latency, local vs remote application",
        ("placement", "mean_steer_rtt_ms", "p90_steer_rtt_ms",
         "throughput_per_s"),
        _row_only(run_remote_vs_local),
        quick=_sweep("remote", (False, True), duration=10.0),
        full=_sweep("remote", (False, True), duration=20.0)),
    "E10b": Experiment(
        "fault injection: a killed server is detected, commands fail "
        "over to the replica, the SLO alert fires and resolves",
        ("victim", "victim_status", "detection_latency_s", "commands_ok",
         "commands_failed", "alerts_fired", "alerts_resolved",
         "health_failovers"),
        run_fault_injection,
        quick=(dict(duration=15.0, kill_at=5.0),),
        full=({},),
        check=_check_e10b),
    "E11": Experiment(
        "sharded directory: flat shard load, p99 independent of "
        "fleet size",
        ("n_servers", "n_shards", "sessions", "sessions_done",
         "sessions_failed", "lookup_p50_ms", "lookup_p99_ms",
         "shard_load_max_over_mean"),
        _row_only(run_fleet_directory),
        quick=_sweep("n_servers", (10, 20), n_sessions=1000,
                     directory_shards=4),
        full=_sweep("n_servers", (50, 100, 200), n_sessions=20_000,
                    directory_shards=8),
        check=_check_e11),
    "E12": Experiment(
        "kill → restart → recover sessions, locks, archive from "
        "snapshot + WAL",
        ("victim", "pre_sessions", "recovered_sessions", "lock_preserved",
         "groups_preserved", "recovered_interactions", "wal_replayed",
         "catchup_records", "recovery_wall_ms"),
        _recovery_drill,
        quick=(dict(n_commands=10),),
        full=(dict(n_commands=25),),
        check=_check_e12),
    "E13": Experiment(
        "telemetry plane: error-rate breach within one bucket of a "
        "kill, merged p99 recovers within 10%",
        ("victim", "bucket_width_s", "kill_at_s", "breach_delay_s",
         "p99_baseline_ms", "p99_recovered_ms", "p99_ratio", "commands_ok",
         "commands_failed", "merged_series", "merged_points"),
        _telemetry_drill,
        quick=(dict(duration=15.0, kill_at=5.0),),
        full=({},),
        check=_check_e13),
    "E14": Experiment(
        "cost attribution: exact per-principal partition, noisy "
        "neighbor tops every dimension within one bucket",
        ("n_servers", "flooder", "flood_lookups", "flood_noise_frames",
         "partition_exact", "principals", "flooder_top_all_dims",
         "detection_latency_max_s", "bucket_width_s"),
        run_noisy_neighbor_drill,
        quick=(dict(n_servers=10, n_sessions=300, directory_shards=4,
                    duration=20.0, flood_start=5.0, flood_rate=100.0),),
        full=({},),
        check=_check_e14),
}
