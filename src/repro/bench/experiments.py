"""The experiment table: every experiment, declared once.

:data:`EXPERIMENTS` is the only place that names an experiment's quick
and full parameter sets, its table columns and its acceptance facts —
the paper's evaluation (E1–E10, ``E11-corba``, ``E12-replay``), the
ablations (A1–A7; A3 rides inside E7) and the drills this reproduction
added (E10b, E11, E12, E13, E14).  Its keys are the headings of
EXPERIMENTS.md.  The CLI (``python -m repro run <id>`` / ``run all``,
``status``, ``alerts``, ``tsdb``, ``costs``, ``profile``), the ``tools/``
gates and exporters, CI and the tier-1 table test all obtain their run
from here::

    rows, live = EXPERIMENTS["E14"].run(quick=True, profiler=profiler)
    violated = EXPERIMENTS["E14"].check(rows)   # [] when every fact holds

``live`` is what the drill leaves for further reading — E10b's running
deployment (scrape ``/status`` from it), E13's fleet-merged time-series
store, E14's fleet (``fleet.ledger``) — and ``None`` elsewhere.

Acceptance facts are plain functions of the rows: the paper's claim for
a paper experiment (the knee, the WAN ratio, the relayed lock), the
plane's promise for a drill.  A fact names the rows it reads, computes
the cross-row quantities it needs (E2's slowdown, E6's overhead) itself,
and — where it holds per row — carries the row's key in its text.
``quick`` is ``full`` wherever the full run takes under a second;
elsewhere it keeps the rows the facts read, at a shorter duration.  A
spec layer with assertions-as-queries (ROADMAP item 3's ``ScenarioSpec``)
was considered and not built: its callers would still know everything
they know now.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.bench.fleet import run_fleet_directory, run_noisy_neighbor_drill
from repro.bench.scenarios import (
    run_app_scalability,
    run_archival_replay,
    run_client_scalability,
    run_collab_scenario,
    run_corba_vs_socket,
    run_discovery_overhead,
    run_fault_injection,
    run_fifo_buffers,
    run_lock_relay,
    run_network_scalability,
    run_poll_interval,
    run_protocol_asymmetry,
    run_recovery_drill,
    run_remote_access,
    run_remote_login,
    run_remote_vs_local,
    run_telemetry_drill,
    run_update_mode,
)


@dataclass(frozen=True)
class Experiment:
    """One row of the table.  ``drill(**params)`` returns ``(row, live)``
    — or ``(rows, live)`` where one simulation yields several rows (E10's
    two placements contend in one run); ``quick`` / ``full`` hold one
    parameter set per drill call."""

    claim: str
    columns: Tuple[str, ...]
    drill: Callable[..., tuple]
    quick: Tuple[dict, ...]
    full: Tuple[dict, ...]
    #: ``check(rows)`` → the violated acceptance facts, each named
    check: Callable[[List[dict]], List[str]]

    def run(self, quick: bool = False, **overrides):
        """Run every parameter set; ``overrides`` (``log_sink=``,
        ``profiler=``, ``cost_model=``) pass through to the drill."""
        rows, live = [], None
        for params in (self.quick if quick else self.full):
            out, live = self.drill(**params, **overrides)
            rows.extend(out if isinstance(out, list) else [out])
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


def _check_e1(rows):
    by_n = {row["n_apps"]: row for row in rows}
    return _violated(
        ("saturated is False (n_apps=40): the paper's >40 operating point",
         not by_n[40]["saturated"]),
        ("saturated is False (n_apps=50)", not by_n[50]["saturated"]),
        ("saturated is True (n_apps=70): the knee exists",
         by_n[70]["saturated"]),
        ("mean_lag_ms (n_apps=70) > 5 x mean_lag_ms (n_apps=40)",
         by_n[70]["mean_lag_ms"] > 5 * by_n[40]["mean_lag_ms"]))


def _check_e2(rows):
    rtt = {row["n_clients"]: row["mean_rtt_ms"] for row in rows}
    slowdown = {n: rtt[n] / rtt[5] for n in rtt}
    return _violated(
        ("mean_rtt_ms (n_clients=20) < 1.5 x the 5-client baseline",
         slowdown[20] < 1.5),
        ("mean_rtt_ms (n_clients=30) > 2.0 x the 5-client baseline: "
         "degradation beyond 20", slowdown[30] > 2.0),
        ("mean_rtt_ms (n_clients=40) > mean_rtt_ms (n_clients=30)",
         rtt[40] > rtt[30]))


def _check_e3(rows):
    tcp, corba, http = rows
    return _violated(
        ("measured_ceiling_msgs_per_s: TCP > CORBA > HTTP",
         tcp["measured_ceiling_msgs_per_s"]
         > corba["measured_ceiling_msgs_per_s"]
         > http["measured_ceiling_msgs_per_s"]),
        ("model_cost_ms: TCP < CORBA < HTTP",
         tcp["model_cost_ms"] < corba["model_cost_ms"]
         < http["model_cost_ms"]))


def _check_e4(rows):
    central, p2p = rows
    # per update, centralized sends one WAN message per remote *client*,
    # P2P one per remote *server* — here 8 vs 2
    return _violated(
        ("wan_messages: p2p < central / 2",
         p2p["wan_messages"] < central["wan_messages"] / 2.0),
        ("wan_bytes: p2p < central", p2p["wan_bytes"] < central["wan_bytes"]),
        ("updates_seen: p2p > 0.7 x central",
         p2p["updates_seen"] > 0.7 * central["updates_seen"]))


def _check_e5(rows):
    latency = {(row["mode"], round(row["wan_latency_ms"])):
               row["mean_update_latency_ms"] for row in rows}
    gap = {wan: latency["central", wan] - latency["p2p", wan]
           for wan in (20, 60, 120)}
    return _violated(
        *((f"mean_update_latency_ms: p2p < central (wan_latency_ms={wan})",
           gap[wan] > 0) for wan in (60, 120)),
        ("mean_update_latency_ms: the central - p2p gap is wider at 120 ms "
         "than at 20 ms", gap[120] > gap[20]))


def _check_e6(rows):
    local, remote = rows
    overhead = remote["mean_steer_rtt_ms"] - local["mean_steer_rtt_ms"]
    wan_round_trip = 2 * remote["wan_latency_ms"]
    return _violated(
        ("mean_steer_rtt_ms: remote - local > 0.8 x one WAN round trip",
         overhead > 0.8 * wan_round_trip),
        ("mean_steer_rtt_ms: remote - local < 4 x one WAN round trip",
         overhead < 4 * wan_round_trip),
        ("throughput_per_s: remote <= 1.05 x local",
         remote["throughput_per_s"] <= local["throughput_per_s"] * 1.05))


def _check_e7(rows):
    first, last = rows[0], rows[-1]
    return _violated(
        ("trader_query_ms grows with the registered servers (last > first)",
         last["trader_query_ms"] > first["trader_query_ms"]),
        ("naming_resolve_ms flat (last < 1.5 x first)",
         last["naming_resolve_ms"] < first["naming_resolve_ms"] * 1.5),
        *((f"cached_ref_call_ms <= 1.5 x naming_resolve_ms "
           f"(n_servers={row['n_servers']})",
           row["cached_ref_call_ms"] <= row["naming_resolve_ms"] * 1.5)
          for row in rows))


def _check_e8(rows):
    login = {row["n_servers"]: row["mean_login_ms"] for row in rows}
    overhead = {n: login[n] - login[1] for n in login}
    # roughly linear: 8-server overhead ≈ (7/3)x the 4-server overhead
    linear = (1.4 < overhead[8] / overhead[4] < 4.0
              if overhead[8] > 0 and overhead[4] > 0 else True)
    return _violated(
        *((f"apps_listed == n_servers (n_servers={row['n_servers']})",
           row["apps_listed"] == row["n_servers"]) for row in rows),
        ("mean_login_ms grows with peers (n_servers=8 > n_servers=1)",
         login[8] > login[1]),
        ("mean_login_ms overhead over one server roughly linear in peers: "
         "1.4 < (n_servers=8) / (n_servers=4) < 4.0", linear))


def _check_e9(rows):
    *p2p, single = rows
    return _violated(
        *((f"saturated is False ({row['deployment']})", not row["saturated"])
          for row in p2p),
        ("mean_lag_ms: widest p2p network < 3 x one server (per-server lag "
         "flat)", p2p[-1]["mean_lag_ms"] < 3 * p2p[0]["mean_lag_ms"]),
        ("saturated is True (single server, the same total)",
         single["saturated"]),
        ("mean_lag_ms: single server > 5 x the widest p2p network",
         single["mean_lag_ms"] > 5 * p2p[-1]["mean_lag_ms"]))


def _check_e10(rows):
    local, remote = rows
    return _violated(
        # 42 ms = 0.7 x the round trip of the table's 30 ms WAN
        ("acquire_ms: relayed - local > 42 ms (0.7 x one WAN round trip)",
         remote["acquire_ms"] - local["acquire_ms"] > 42.0),
        ("queued: local + remote > 0 (the contention was real)",
         local["queued"] + remote["queued"] > 0),
        *((f"granted > 0 (placement={row['placement']})", row["granted"] > 0)
          for row in rows))


def _check_e11_corba(rows):
    return _violated(
        *((f"corba_rtt_ms > raw_socket_rtt_ms "
           f"(payload_floats={row['payload_floats']})",
           row["corba_rtt_ms"] > row["raw_socket_rtt_ms"]) for row in rows),
        ("overhead_ms grows with the payload (last > first): marshalling",
         rows[-1]["overhead_ms"] > rows[0]["overhead_ms"]))


def _check_e12_replay(rows):
    per_row = [fact for row in rows for fact in (
        (f"catchup_records == history_k (history_k={row['history_k']})",
         row["catchup_records"] == row["history_k"]),
        (f"replay_records >= history_k (history_k={row['history_k']})",
         row["replay_records"] >= row["history_k"]))]
    first, last = rows[0], rows[-1]
    return _violated(
        *per_row,
        ("catchup_ms grows with the history (last > first)",
         last["catchup_ms"] > first["catchup_ms"]),
        ("full_replay_ms >= 0.8 x catchup_ms at the longest history",
         last["full_replay_ms"] >= last["catchup_ms"] * 0.8))


def _check_a1(rows):
    fastest, slowest = rows[0], rows[-1]
    return _violated(
        ("mean_staleness_ms grows with the poll interval (last > first)",
         slowest["mean_staleness_ms"] > fastest["mean_staleness_ms"]),
        ("server_requests shrink with it (last < first / 4)",
         slowest["server_requests"] < fastest["server_requests"] / 4))


def _check_a2(rows):
    unbounded, tight = rows[0], rows[-1]
    return _violated(
        ("peak_buffer_depth > 16 (capacity=unbounded): the memory overhead",
         unbounded["peak_buffer_depth"] > 16),
        ("dropped == 0 (capacity=unbounded)", unbounded["dropped"] == 0),
        ("peak_buffer_depth <= 4 (capacity=4)",
         tight["peak_buffer_depth"] <= 4),
        ("dropped > 0 (capacity=4): bounding trades memory for loss",
         tight["dropped"] > 0))


def _check_a4(rows):
    push, poll_fast, poll_slow = rows
    return _violated(
        ("wan_messages: poll@250ms > push",
         poll_fast["wan_messages"] > push["wan_messages"]),
        ("mean_staleness_ms: poll@1000ms > push",
         poll_slow["mean_staleness_ms"] > push["mean_staleness_ms"]),
        *((f"updates_seen > 10 (mode={row['mode']})", row["updates_seen"] > 10)
          for row in rows))


def _check_a5(rows):
    by_key = {(row["auth"], row["n_servers"]): row for row in rows}
    login = {key: row["mean_login_ms"] for key, row in by_key.items()}
    return _violated(
        ("mean_login_ms: directory at 8 servers < 1.5 x directory at 2 "
         "(flat in network size)",
         login["directory", 8] < 1.5 * login["directory", 2]),
        ("mean_login_ms: fan-out at 8 servers > 2 x directory at 8",
         login["fan-out", 8] > 2 * login["directory", 8]),
        *((f"apps_listed: directory == fan-out (n_servers={n})",
           by_key["directory", n]["apps_listed"]
           == by_key["fan-out", n]["apps_listed"]) for n in (2, 8)))


def _check_a6(rows):
    rtt = {(row["server_cpus"], row["n_clients"]): row["mean_rtt_ms"]
           for row in rows}
    base = rtt[1, 10]
    return _violated(
        ("mean_rtt_ms (1 CPU, 30 clients) > 2 x (1 CPU, 10 clients)",
         rtt[1, 30] > 2 * base),
        ("mean_rtt_ms (2 CPUs, 30 clients) < 1.5 x (1 CPU, 10 clients): "
         "the knee roughly doubled", rtt[2, 30] < 1.5 * base),
        ("mean_rtt_ms (2 CPUs, 60 clients) > 2 x (1 CPU, 10 clients)",
         rtt[2, 60] > 2 * base),
        ("mean_rtt_ms (4 CPUs, 60 clients) < 1.5 x (1 CPU, 10 clients)",
         rtt[4, 60] < 1.5 * base))


def _check_a7(rows):
    steer_relay, steer_redirect, watch_relay, watch_redirect = rows
    ratio = (steer_redirect["mean_steer_rtt_ms"]
             / steer_relay["mean_steer_rtt_ms"])
    return _violated(
        ("mean_steer_rtt_ms (1 steerer): 0.7 < redirect / relay < 1.3",
         0.7 < ratio < 1.3),
        ("corba_relays > 0 (1 steerer, relay)",
         steer_relay["corba_relays"] > 0),
        ("corba_relays == 0 (1 steerer, redirect)",
         steer_redirect["corba_relays"] == 0),
        # redirection degenerates to centralized access (cf. E4)
        ("wan_messages (watchers): redirect > 2 x relay",
         watch_redirect["wan_messages"] > 2 * watch_relay["wan_messages"]))


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
_E5 = tuple(p for w in (0.020, 0.060, 0.120)
            for p in _sweep("mode", _MODES, duration=20.0, wan_latency=w))
_E9_STRAWMAN = dict(n_servers=4, single_server=True)
_A6_FULL = tuple(p for cpus in (1, 2, 4)
                 for p in _sweep("n_clients", (10, 20, 30, 40, 60),
                                 server_cpus=cpus, duration=15.0))
#: the five (cpus, clients) cells A6's facts read
_A6_QUICK = tuple(dict(n_clients=n, server_cpus=cpus, duration=5.0)
                  for cpus, n in ((1, 10), (1, 30), (2, 30), (2, 60),
                                  (4, 60)))
_A7 = tuple(dict(remote_access=mode, watchers=watchers)
            for watchers in (0, 4) for mode in ("relay", "redirect"))


def _same(*params):
    """``quick`` is ``full``: the full run takes under a second."""
    return dict(quick=params, full=params)


EXPERIMENTS: Dict[str, Experiment] = {
    "E1": Experiment(
        "§6.1: supports more than 40 simultaneous applications on a "
        "single server",
        ("n_apps", "offered_updates_per_s", "mean_lag_ms", "p90_lag_ms",
         "throughput_per_s", "saturated"),
        _row_only(run_app_scalability),
        quick=_sweep("n_apps", (40, 50, 70), duration=5.0),
        full=_sweep("n_apps", (10, 20, 30, 40, 50, 60, 70), duration=20.0),
        check=_check_e1),
    "E2": Experiment(
        "§6.1: 20 simultaneous HTTP clients supported; beyond 20, "
        "degradation",
        ("n_clients", "mean_rtt_ms", "p90_rtt_ms", "p99_rtt_ms", "polls"),
        _row_only(run_client_scalability),
        quick=_sweep("n_clients", (5, 20, 30, 40), duration=5.0),
        full=_sweep("n_clients", (5, 10, 15, 20, 25, 30, 40),
                    duration=20.0),
        check=_check_e2),
    "E3": Experiment(
        "§6.1: more simultaneous applications than clients — the "
        "per-server message ceiling of each protocol",
        ("protocol", "model_cost_ms", "measured_ceiling_msgs_per_s"),
        _row_only(run_protocol_asymmetry),
        **_same({}),
        check=_check_e3),
    "E4": Experiment(
        "§5.2.3: only one WAN message is sent to a remote server, not "
        "one per remote client (central vs P2P)",
        ("mode", "clients", "wan_messages", "wan_bytes", "lan_messages",
         "mean_update_latency_ms", "updates_seen"),
        _row_only(run_collab_scenario),
        **_same(*_sweep("mode", _MODES, duration=20.0, wan_latency=0.060)),
        check=_check_e4),
    "E5": Experiment(
        "§5.2.3: P2P reduces client latencies when the servers are "
        "geographically far away",
        ("mode", "wan_latency_ms", "mean_update_latency_ms",
         "p90_update_latency_ms", "updates_seen"),
        _row_only(run_collab_scenario),
        **_same(*_E5),
        check=_check_e5),
    "E6": Experiment(
        "§7: steering latency and throughput, local vs remote application",
        ("placement", "wan_latency_ms", "mean_steer_rtt_ms",
         "p90_steer_rtt_ms", "commands", "throughput_per_s"),
        _row_only(run_remote_vs_local),
        **_same(*_sweep("remote", (False, True), duration=20.0)),
        check=_check_e6),
    "E7": Experiment(
        "§7: service-discovery overheads — trader query, naming resolve, "
        "cached reference (+A3, the trader on top of naming)",
        ("n_servers", "trader_offers", "trader_query_ms",
         "naming_resolve_ms", "cached_ref_call_ms"),
        _row_only(run_discovery_overhead),
        **_same(*_sweep("n_domains", (2, 4, 8, 16))),
        check=_check_e7),
    "E8": Experiment(
        "§7: remote-authentication overhead — login fans out to every "
        "peer server",
        ("n_servers", "n_peers", "apps_listed", "mean_login_ms",
         "p90_login_ms"),
        _row_only(run_remote_login),
        **_same(*_sweep("n_domains", (1, 2, 4, 8))),
        check=_check_e8),
    "E9": Experiment(
        "§6.1: with the peer-to-peer server network the number of "
        "simultaneous applications increases further",
        ("deployment", "n_servers", "total_apps", "mean_lag_ms",
         "p90_lag_ms", "throughput_per_s", "saturated", "channel_requests",
         "orb_requests"),
        _row_only(run_network_scalability),
        quick=(*_sweep("n_servers", (1, 4), duration=5.0),
               dict(_E9_STRAWMAN, duration=5.0)),
        full=(*_sweep("n_servers", (1, 2, 4)), _E9_STRAWMAN),
        check=_check_e9),
    "E10": Experiment(
        "§5.2.4: servers providing remote access only relay lock "
        "requests to the host server",
        ("placement", "acquire_ms", "release_ms", "acquires", "granted",
         "queued"),
        _row_only(run_lock_relay),
        **_same({}),
        check=_check_e10),
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
    "E11-corba": Experiment(
        "§6.2: CORBA reduces performance when compared to a lower level "
        "socket based system",
        ("payload_floats", "payload_kb", "corba_rtt_ms",
         "raw_socket_rtt_ms", "overhead_ms", "overhead_pct"),
        _row_only(run_corba_vs_socket),
        **_same(*_sweep("payload_floats", (8, 256, 4096))),
        check=_check_e11_corba),
    "E12-replay": Experiment(
        "§5.2.5: clients replay their interactions; latecomers to a "
        "collaboration group get up to speed from the archive",
        ("history_k", "catchup_records", "replay_records", "catchup_ms",
         "full_replay_ms"),
        _row_only(run_archival_replay),
        **_same(*_sweep("history_k", (10, 50, 100, 200))),
        check=_check_e12_replay),
    "E12": Experiment(
        "kill → restart → recover sessions, locks, archive from "
        "snapshot + WAL",
        ("victim", "pre_sessions", "recovered_sessions", "lock_preserved",
         "groups_preserved", "recovered_interactions", "wal_replayed",
         "catchup_records"),
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
    "A1": Experiment(
        "§6.2 ablation: HTTP necessitates poll-and-pull — the "
        "poll-cadence trade-off",
        ("poll_interval_ms", "mean_staleness_ms", "p90_staleness_ms",
         "server_requests", "requests_per_s"),
        _row_only(run_poll_interval),
        **_same(*_sweep("poll_interval", (0.05, 0.1, 0.25, 0.5, 1.0, 2.0))),
        check=_check_a1),
    "A2": Experiment(
        "§6.2 ablation: per-client FIFO buffers for slow clients — "
        "memory against loss",
        ("capacity", "peak_buffer_depth", "delivered", "dropped",
         "drop_pct"),
        _row_only(run_fifo_buffers),
        **_same(*_sweep("capacity", (float("inf"), 64, 16, 4))),
        check=_check_a2),
    "A4": Experiment(
        "§5.2.3 ablation: server-to-server updates, push vs poll",
        ("mode", "wan_messages", "wan_kb", "mean_staleness_ms",
         "updates_seen"),
        _row_only(run_update_mode),
        **_same(dict(update_mode="push"),
                dict(update_mode="poll", poll_interval=0.25),
                dict(update_mode="poll", poll_interval=1.0)),
        check=_check_a4),
    "A5": Experiment(
        "§6.3 ablation: login via peer fan-out vs a GIS-style directory",
        ("auth", "n_servers", "apps_listed", "mean_login_ms",
         "p90_login_ms"),
        _row_only(run_remote_login),
        **_same(*(dict(n_domains=n, use_directory=directory)
                  for n in (2, 8) for directory in (False, True))),
        check=_check_a5),
    "A6": Experiment(
        "§6.1 ablation: the client limit is a server-CPU limit — the "
        "knee moves with server CPUs",
        ("server_cpus", "n_clients", "mean_rtt_ms", "p90_rtt_ms", "polls"),
        _row_only(run_client_scalability),
        quick=_A6_QUICK,
        full=_A6_FULL,
        check=_check_a6),
    "A7": Experiment(
        "§4.1 ablation: remote access by middleware relay vs request "
        "redirection",
        ("workload", "mode", "mean_steer_rtt_ms", "commands",
         "corba_relays", "wan_messages"),
        _row_only(run_remote_access),
        **_same(*_A7),
        check=_check_a7),
}
