"""The experiment table: every experiment's quick run satisfies its
declared acceptance facts, a broken fact is reported by name, the paper's
claims fail when the cost model is flattened, the scenario bodies return
the rows they returned before they moved into ``repro.bench.scenarios``
(``paper_rows.json``), and the drills' rows match the literals captured
before they were refactored onto shared bodies (id-independent fields
only) and every field of their quick rows as captured before their faults
became data (``drill_rows.json``).  A row holds no host time, so every
row is compared whole.
"""

import copy
import dataclasses
import functools
import json
import re
from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.cli import main
from repro.net.costs import CostModel

#: rows of every paper experiment whose full run takes under a second
#: (so ``quick`` is ``full``), captured at the parent of PR 20 — where
#: each scenario body still sat in its own benchmark file — by calling it
#: at its full parameters after ``reset_runtime_ids()``, as
#: ``Experiment.run`` does; ``ts_series`` / ``ts_points`` (here and in
#: the drills' rows) and E13's ``merged_*`` have since dropped by exactly
#: the ``slo.*`` series and points the SLO engine no longer writes, and
#: again by exactly the ``pipeline.requests.<plane>`` series and points
#: (one per request) that repeated the latency histograms' counts, and
#: again by exactly the ``storage.wal_append_us`` series (one per
#: journaling server) and points (one per WAL append, the row's
#: ``storage_appends``) that held each append's host time, and
#: E4/E5's ``cost_events`` by exactly the non-final compute-step timers
#: each request window saw before a compute phase became one timer.
#: Since the HTTP container, the HTTP clients and the ORBs bind handler
#: ports, E4/E5/E6's ``cost_events`` have dropped by the listener events
#: (a ``StoreGet`` per frame those loops took) each request window saw —
#: and the p2p rows by one more per login fan-out window
#: (``authenticate_and_list``) that opened in an instant which also
#: booted a spawned ``_serve``, a boot the handler port now runs before
#: the window opens (E4 row 1: 4; E5 rows 1, 3 and 5: 5, 4 and 4).  Two
#: rows moved by a same-instant CPU tie the handler port takes the other
#: way (DESIGN §4e "Ports"): A1's 0.25 s row, ``p90_staleness_ms``
#: 252.47184290910357 → 252.04759600004277 and ``mean_staleness_ms``
#: 149.27625743181267 → 149.17055092044984, and E5's central row at
#: 120 ms, ``mean_update_latency_ms`` 329.54958806356206 →
#: 329.5169799650937
PAPER_ROWS = json.loads(
    (Path(__file__).parent / "paper_rows.json").read_text())
#: the E10b, E11, E12 and E13 drills' quick rows, captured by
#: ``Experiment.run(quick=True)`` before their faults became
#: :mod:`repro.bench.faults` records (E12's host-time ``recovery_wall_ms``
#: left out, a field the row no longer has); E10b's, E12's
#: and E13's ``cost_events`` have since dropped by the listener events
#: the handler ports removed (1 422 → 1 348, 382 → 366, 1 837 → 1 733),
#: E10b's and E13's less two: an ``exchange_health`` ``_serve`` the ORB's
#: handler boots ahead of a same-instant CPU release on ``d0-server``
#: queues and is granted by one gate event, inside two nested login
#: windows, where it used to find the CPU free
DRILL_ROWS = json.loads(
    (Path(__file__).parent / "drill_rows.json").read_text())


@pytest.fixture(scope="module")
def quick_runs():
    """Every experiment's quick rows and live object, run once for the
    whole module."""
    runs = {}
    for exp_id, entry in EXPERIMENTS.items():
        rows, live = entry.run(quick=True)
        if hasattr(live, "stop"):
            live.stop()
        runs[exp_id] = rows, live
    return runs


@pytest.fixture(scope="module")
def quick_rows(quick_runs):
    return {exp_id: rows for exp_id, (rows, _live) in quick_runs.items()}


def test_table_ids_are_the_headings_of_experiments_md():
    text = (Path(__file__).parents[2] / "EXPERIMENTS.md").read_text()
    headings = re.findall(r"^## ([EA]\d+[\w-]*) — ", text, re.MULTILINE)
    assert headings == list(EXPERIMENTS)


@pytest.mark.parametrize("exp_id", EXPERIMENTS)
def test_quick_run_satisfies_every_fact(quick_rows, exp_id):
    assert EXPERIMENTS[exp_id].check(quick_rows[exp_id]) == []


@pytest.mark.parametrize("exp_id", PAPER_ROWS)
def test_rows_are_the_parents_bit_for_bit(quick_rows, exp_id):
    entry = EXPERIMENTS[exp_id]
    assert entry.quick == entry.full  # the quick rows are the full rows
    # through JSON as the capture went: repr round-trips every float
    assert json.loads(json.dumps(quick_rows[exp_id])) == PAPER_ROWS[exp_id]


@pytest.mark.parametrize("exp_id", DRILL_ROWS)
def test_drill_rows_are_pinned_bit_for_bit(quick_rows, exp_id):
    assert json.loads(json.dumps(quick_rows[exp_id])) == DRILL_ROWS[exp_id]


def test_the_ledger_and_the_traffic_trace_count_the_same_bytes(quick_runs):
    """Each frame hop is booked once, by the network's traffic trace,
    which charges the same bytes to the cost ledger's principal in that
    call — so wherever a quick run leaves a ledger the two totals agree to
    the byte, delivered and dropped."""
    checked = []
    for exp_id, (_rows, live) in quick_runs.items():
        ledger = getattr(live, "ledger", None)
        if ledger is None:
            continue
        trace = live.net.trace
        assert ledger.total.wan_bytes > 0, exp_id
        assert (ledger.total.lan_bytes, ledger.total.wan_bytes,
                ledger.total.dropped_bytes) == (
            trace.lan_bytes, trace.wan_bytes, trace.dropped.bytes), exp_id
        checked.append(exp_id)
    assert checked == ["E10b", "E14"]


#: (experiment, row, field, planted value): each breaks exactly one fact
PLANTED = [
    ("E10b", 0, "victim_status", "healthy"),
    ("E11", 0, "sessions_failed", 1),
    ("E12", 0, "lock_preserved", False),
    ("E13", 0, "breach_delay_s", None),
    ("E14", 0, "partition_exact", False),
    ("E1", 0, "saturated", True),               # at 40 apps
    ("E2", 0, "mean_rtt_ms", 100.0),            # the 5-client baseline
    ("E3", 0, "model_cost_ms", 1e9),            # TCP
    ("E4", 0, "updates_seen", 10 ** 9),         # central
    ("E5", 0, "mean_update_latency_ms", 1e9),   # central at 20 ms
    ("E6", 0, "throughput_per_s", 0.0),         # local
    ("E7", 0, "trader_query_ms", 1e9),          # fewest servers
    ("E8", 0, "apps_listed", 0),
    ("E9", 0, "saturated", True),               # p2p x1
    ("E10", 0, "granted", 0),                   # local
    ("E11-corba", 0, "corba_rtt_ms", 0.0),
    ("E12-replay", 0, "catchup_records", 0),
    ("A1", 0, "server_requests", 0),            # fastest polling
    ("A2", 0, "dropped", 1),                    # unbounded
    ("A4", 0, "updates_seen", 0),               # push
    ("A5", 0, "apps_listed", 99),               # fan-out at 2 servers
    ("A6", 1, "mean_rtt_ms", 0.0),              # 1 CPU, 30 clients
    ("A7", 0, "corba_relays", 0),               # 1 steerer, relay
]


@pytest.mark.parametrize(
    "exp_id, index, field, broken", PLANTED,
    ids=[f"{exp_id}-{field}-{broken}"
         for exp_id, _index, field, broken in PLANTED])
def test_broken_fact_is_named(quick_rows, exp_id, index, field, broken):
    rows = copy.deepcopy(quick_rows[exp_id])
    rows[index][field] = broken
    violated = EXPERIMENTS[exp_id].check(rows)
    assert len(violated) == 1, violated
    assert field in violated[0]


def test_every_experiment_has_a_planted_row():
    assert {exp_id for exp_id, *_ in PLANTED} == set(EXPERIMENTS)


@pytest.mark.parametrize("exp_id, fact, column", [
    ("E13", "p99_ratio in [0.9, 1.1]", "merged_points"),
    ("E14", "partition_exact", "flood_lookups"),
])
def test_cli_run_exits_1_and_names_the_violated_fact(monkeypatch, capsys,
                                                     exp_id, fact, column):
    # the entry is a frozen dataclass: swap the table row, not its field
    monkeypatch.setitem(
        EXPERIMENTS, exp_id,
        dataclasses.replace(EXPERIMENTS[exp_id], check=lambda rows: [fact]))
    assert main(["run", exp_id, "--quick"]) == 1
    captured = capsys.readouterr()
    assert fact in captured.err
    assert column in captured.out  # the table is printed before the verdict


@pytest.mark.parametrize("exp_id, cost, fact", [
    ("E1", "tcp_message_cost", "saturated is True (n_apps=70)"),
    ("E2", "http_request_cost", "mean_rtt_ms (n_clients=30) > 2.0 x"),
])
def test_a_flattened_knee_fails_the_papers_claim(monkeypatch, capsys,
                                                 exp_id, cost, fact):
    """ROADMAP item 7's gate: a tenfold cheaper protocol moves the §6.1
    saturation knee out of the sweep, and both the table's ``check`` and
    ``python -m repro run`` say which claim no longer holds."""
    entry = EXPERIMENTS[exp_id]
    flattened = CostModel(**{cost: getattr(CostModel(), cost) / 10})
    rows, _live = entry.run(quick=True, cost_model=flattened)
    assert [v for v in entry.check(rows) if fact in v]
    monkeypatch.setitem(
        EXPERIMENTS, exp_id,
        dataclasses.replace(entry, drill=functools.partial(
            entry.drill, cost_model=flattened)))
    assert main(["run", exp_id, "--quick"]) == 1
    assert f"{exp_id}: acceptance fact violated: {fact}" in (
        capsys.readouterr().err)


def test_e10b_quick_literals(quick_rows):
    (row,) = quick_rows["E10b"]
    assert row["victim_status"] == "unhealthy"
    assert (row["commands_ok"], row["commands_failed"]) == (20, 2)
    assert (row["alerts_fired"], row["alerts_resolved"]) == (4, 2)
    assert row["health_failovers"] == 13


def test_e11_quick_literals(quick_rows):
    small, large = quick_rows["E11"]
    assert small["sessions_done"] == large["sessions_done"] == 1000
    assert (small["lookup_p99_ms"], large["lookup_p99_ms"]) == (76.358,
                                                                75.008)
    assert (small["shard_load_max_over_mean"],
            large["shard_load_max_over_mean"]) == (1.325, 1.284)


def test_e12_quick_literals(quick_rows):
    (row,) = quick_rows["E12"]
    assert (row["wal_replayed"], row["catchup_records"]) == (6, 10)
    assert row["pre_sessions"] == row["recovered_sessions"] == 2


def test_e13_quick_literals(quick_rows):
    (row,) = quick_rows["E13"]
    assert row["breach_delay_s"] == -0.29
    assert row["p99_ratio"] == 1.0
    # a request is one latency point: no pipeline.requests.<plane> series;
    # a WAL append is no host-time point: no storage.wal_append_us series
    assert (row["merged_series"], row["merged_points"]) == (12, 1272)


def test_e14_quick_literals_and_determinism(quick_rows):
    (row,) = quick_rows["E14"]
    assert (row["flood_lookups"], row["flood_noise_frames"]) == (1500, 375)
    assert row["principals"] == 15
    assert row["detection_latency_max_s"] == 0.25
    (again,), fleet = EXPERIMENTS["E14"].run(quick=True)
    fleet.stop()
    assert again == row


def test_cost_top_principal_is_the_argmax_of_the_entries(quick_rows):
    """Rows on which eight sketch counters over a flat distribution named
    somebody else (``d0-app0``; ``s8``, ``s7``) before PR 21."""
    assert quick_rows["E2"][3]["cost_top_principal"] == "d0-client0"
    assert [row["cost_top_principal"]
            for row in quick_rows["E11"]] == ["s3", "s9"]


@pytest.mark.usefixtures("session_ids_kept")
def test_e14_detection_is_the_top_per_bucket_rate(monkeypatch):
    """The monitor's verdict, recomputed from the ledger readings it took:
    the flooder tops every flood dimension's growth over the first bucket.
    Ranked by cumulative totals it does not yet lead ``wan_bytes`` there —
    the background principals' head start — which is why the fact is
    stated as a rate."""
    from repro.bench import fleet as fleet_module
    from repro.obs import RequestCostLedger

    built, readings = [], []
    build_fleet = fleet_module.build_fleet
    partition_by = RequestCostLedger.partition_by

    def capturing_build(*args, **kwargs):
        built.append(build_fleet(*args, **kwargs))
        return built[-1]

    def recording_partition(self, field="principal"):
        parts = partition_by(self, field)
        readings.append((built[-1].sim.now, {
            who: vec.as_dict() for who, vec in parts.items()}))
        return parts

    monkeypatch.setattr(fleet_module, "build_fleet", capturing_build)
    monkeypatch.setattr(RequestCostLedger, "partition_by",
                        recording_partition)
    (row,), fleet = EXPERIMENTS["E14"].run(quick=True)
    fleet.stop()
    flooder, bucket = row["flooder"], row["bucket_width_s"]
    t_start = readings[0][0]  # the monitor's first reading: the flood starts
    monitor = [reading for reading in readings
               if reading[0] <= t_start + row["detection_latency_max_s"]]
    assert [t for t, _parts in monitor] == [t_start, t_start + bucket]

    def leader(counts):
        return min(counts, key=lambda who: (-counts[who], who))

    recomputed = {}
    for (_t, before), (now, parts) in zip(monitor, monitor[1:]):
        for dim in fleet_module.FLOOD_DIMS:
            growth = {who: vec[dim] - before.get(who, {dim: 0})[dim]
                      for who, vec in parts.items()}
            if leader(growth) == flooder:
                recomputed.setdefault(dim, round(now - t_start, 6))
    assert row["detection_latency_by_dim_s"] == recomputed \
        == dict.fromkeys(fleet_module.FLOOD_DIMS, bucket)
    _t, one_bucket_in = monitor[1]
    assert leader({who: vec["wan_bytes"]
                   for who, vec in one_bucket_in.items()}) != flooder
