"""Tests for the bench harness (report formatting, scenario runners) and
the CLI."""

import pytest

from repro.bench import format_table
from repro.bench.experiments import Experiment
from repro.bench.report import FOOTER_GROUPS, format_pipeline_summary
from repro.bench.scenarios import run_app_scalability, run_client_scalability
from repro.cli import EXPERIMENTS, build_parser, main


# ------------------------------- report -------------------------------------

def test_format_table_basic():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
    out = format_table(rows, ["a", "b"], title="demo")
    lines = out.splitlines()
    assert lines[0] == "demo"
    assert "a" in lines[2] and "b" in lines[2]
    assert "10" in out
    assert "0.12" in out  # floats rendered to 2 decimals


def test_format_table_empty():
    assert "(no rows)" in format_table([], ["a"], title="empty")


def test_format_table_missing_column_blank():
    out = format_table([{"a": 1}], ["a", "missing"])
    assert "missing" in out


def test_format_table_widths_accommodate_long_values():
    rows = [{"name": "x" * 30}]
    out = format_table(rows, ["name"])
    assert "x" * 30 in out


def test_footer_text_is_pinned():
    """The footer for a fixed row, byte for byte as it printed before its
    keys were declared once in ``FOOTER_GROUPS`` (two rows: the counters
    sum, the detection latency is the worst, the top principal the
    first)."""
    keys = [key for entries in FOOTER_GROUPS.values()
            for _name, key in entries]
    row = {key: i for i, key in enumerate(keys, 1)}
    row.update(cost_top_principal="user:alice", detection_latency_s=1.256)
    assert format_pipeline_summary([row, row]) == (
        "pipeline: http=2 orb=4 channel=6 errors=8 sessions_expired=10\n"
        "federation: subscribes=12 unsubscribes=14 invalidations=16 "
        "poll_failovers=18\n"
        "health: healthy=22 degraded=24 unhealthy=26 unknown=28 "
        "alerts_fired=30 alerts_resolved=32 failovers=34 "
        "detection_latency_s=1.26\n"
        "directory: lookups=36 locates=38 publishes=40 read_failovers=42 "
        "write_skips=44 stale_retries=46 stub_hits=48 stub_misses=50\n"
        "storage: appends=52 snapshots=54 compacted=56 recoveries=58 "
        "replayed=60\n"
        "obs: log_records=62 log_dropped=64 ts_series=66 ts_points=68\n"
        "costs: requests=70 events=72 cpu_us=74 wan_bytes=76 "
        "dropped_frames=78 dropped_bytes=80 entries=82 "
        "top_principal=user:alice")
    # rows from before a plane existed print only the groups they carry
    assert format_pipeline_summary([{key: row[key] for key in keys[:5]}]) == (
        "pipeline: http=1 orb=2 channel=3 errors=4 sessions_expired=5")
    assert format_pipeline_summary([{"v": 1}]) == ""


# ------------------------------ scenarios ------------------------------------

def test_app_scalability_row_shape():
    row = run_app_scalability(5, duration=5.0)
    assert row["n_apps"] == 5
    assert row["updates_processed"] > 0
    assert row["mean_lag_ms"] > 0
    assert not row["saturated"]


def test_client_scalability_row_shape():
    row = run_client_scalability(3, duration=5.0)
    assert row["n_clients"] == 3
    assert row["polls"] > 0
    assert row["mean_rtt_ms"] > 0


# --------------------------------- CLI ----------------------------------------

def test_cli_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["run", "E1", "--quick"])
    assert args.command == "run"
    assert args.experiment == "E1"
    assert args.quick


def test_cli_experiments_listing(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for exp_id in EXPERIMENTS:
        assert exp_id in out


def test_cli_unknown_experiment(capsys):
    assert main(["run", "E99"]) == 2


def test_cli_run_all_runs_every_row_and_names_id_and_fact(monkeypatch,
                                                          capsys):
    def entry(violated):
        return Experiment("a claim", ("v",), lambda: ({"v": 1}, None),
                          quick=({},), full=({},),
                          check=lambda rows: violated)

    monkeypatch.setattr("repro.cli.EXPERIMENTS",
                        {"X1": entry([]), "X2": entry([])})
    assert main(["run", "all", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.index("X1: a claim") < out.index("X2: a claim")
    monkeypatch.setattr("repro.cli.EXPERIMENTS",
                        {"X1": entry(["v == 2"]), "X2": entry([])})
    assert main(["run", "all", "--quick"]) == 1
    captured = capsys.readouterr()
    assert "X1: acceptance fact violated: v == 2" in captured.err
    assert "X2: a claim" in captured.out  # a violation does not stop the run


def test_cli_trace_unknown_trace_id_exits_2(capsys):
    assert main(["trace", "--trace-id", "999"]) == 2
    err = capsys.readouterr().err
    assert "unknown trace id 999" in err
    assert "known: 1, 2, 3" in err


def test_cli_info(capsys):
    assert main(["info"]) == 0
    assert "HPDC 2001" in capsys.readouterr().out


def test_cli_run_quick_e6(capsys):
    assert main(["run", "e6", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "local" in out and "remote" in out


def test_cli_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "steered gain -> 2.5" in out


#: each command ``main`` runs in-process, and a line its output must hold
CLI_KEY_LINES = {
    "status --quick": "status of d0-server at sim-time",
    "status --quick --prom": "# TYPE repro_alerts_active gauge",
    "alerts --quick": "scenario: alerts_fired=",
    "costs": "per-operation (requests, cpu_us, events):",
    "profile --scenario e14": "profiled E14 drill: sessions_done=",
    "profile --scenario e1": "profiled E1 run: n_apps=20",
    "trace": "dominant contributors:",  # the critical-path view
    "trace --view summary --metrics": "unified metrics snapshot:",
    "trace --view dump": "portal.command  [client@d0-client0]",
}


@pytest.mark.parametrize("command", list(CLI_KEY_LINES))
def test_cli_command_runs_in_process(capsys, command):
    """Each command exits 0 and prints its key line."""
    assert main(command.split()) == 0
    assert CLI_KEY_LINES[command] in capsys.readouterr().out


def test_cli_tsdb_export_then_load_one_series(capsys, tmp_path):
    path = str(tmp_path / "tsdb.json")
    assert main(["tsdb", "--quick", "--export", path]) == 0
    assert "round-trip verified" in capsys.readouterr().out
    assert main(["tsdb", "--input", path,
                 "--series", "pipeline.latency.http"]) == 0
    out = capsys.readouterr().out
    assert "loaded 12 series from" in out
    assert "pipeline.latency.http (histogram, q=0.99)" in out
