"""Smoke tests for the wall-clock performance harness."""

from __future__ import annotations

import json

from repro.bench.wallclock import (
    format_report,
    main,
    run_suite,
    time_op,
    write_report,
)


def test_time_op_measures_positive_time():
    per_op = time_op(lambda: sum(range(50)), repeat=2, number=10)
    assert per_op > 0


def test_quick_suite_report_shape(tmp_path):
    report = run_suite(quick=True)
    assert report["schema"] == 1
    assert report["quick"] is True
    names = [e["name"] for e in report["benchmarks"]]
    assert "wire/encoded_size_update_64x64" in names
    assert "collab/broadcast_poll_30_subscribers" in names
    assert "storage/append_memory" in names
    assert "storage/snapshot_compact_tail100" in names
    assert "storage/snapshot_compact_tail100_archive5000" in names
    assert "health/heartbeat_history_40s" in names
    assert "health/heartbeat_history_400s" in names
    # end-to-end timing lives in perf/; the quick suite has no e2e arm
    assert not [n for n in names if n.startswith("e2e/")]
    assert all(e["per_op_us"] > 0 for e in report["benchmarks"])
    # the report must survive a JSON round trip (what BENCH_*.json holds)
    path = tmp_path / "bench.json"
    write_report(str(path), report)
    loaded = json.loads(path.read_text())
    assert loaded["benchmarks"] == report["benchmarks"]
    # and render as a table
    text = format_report(report)
    assert "wire/encoded_size_update_64x64" in text


def test_cli_writes_report(tmp_path, capsys):
    out = tmp_path / "bench_cli.json"
    code = main(["--quick", "--output", str(out)])
    assert code == 0
    loaded = json.loads(out.read_text())
    assert loaded["benchmarks"]
    assert "report written" in capsys.readouterr().out
