"""The experiment table: each drill's quick run satisfies its declared
acceptance facts, a broken fact is reported by name, and the rows match
the literals captured before the drills were refactored onto shared
bodies (id-independent fields only; ``recovery_wall_ms`` is host time).
"""

import copy
import dataclasses

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.cli import main

DRILLS = ("E10b", "E11", "E12", "E13", "E14")


@pytest.fixture(scope="module")
def quick_rows():
    rows = {}
    for exp_id in DRILLS:
        rows[exp_id], live = EXPERIMENTS[exp_id].run(quick=True)
        if hasattr(live, "stop"):
            live.stop()
    return rows


@pytest.mark.parametrize("exp_id", DRILLS)
def test_quick_run_satisfies_every_fact(quick_rows, exp_id):
    assert EXPERIMENTS[exp_id].check(quick_rows[exp_id]) == []


@pytest.mark.parametrize("exp_id, field, broken", [
    ("E10b", "victim_status", "healthy"),
    ("E11", "sessions_failed", 1),
    ("E12", "lock_preserved", False),
    ("E13", "breach_delay_s", None),
    ("E14", "partition_exact", False),
])
def test_broken_fact_is_named(quick_rows, exp_id, field, broken):
    rows = copy.deepcopy(quick_rows[exp_id])
    rows[0][field] = broken
    violated = EXPERIMENTS[exp_id].check(rows)
    assert len(violated) == 1, violated
    assert field in violated[0]


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
    assert (row["merged_series"], row["merged_points"]) == (20, 2711)


def test_e14_quick_literals_and_determinism(quick_rows):
    (row,) = quick_rows["E14"]
    assert (row["flood_lookups"], row["flood_noise_frames"]) == (1500, 375)
    assert row["principals"] == 15
    assert row["detection_latency_max_s"] == 0.25
    (again,), fleet = EXPERIMENTS["E14"].run(quick=True)
    fleet.stop()
    assert again == row
