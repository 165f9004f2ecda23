"""Wall-clock performance of the simulator itself (BENCH trajectory).

Unlike every other benchmark in this directory — which reproduces a *paper*
measurement in virtual time — this one measures the real seconds the
reproduction burns on the wire fast path, network delivery, broadcast
fan-out, the storage journal and one fleet-scale E1 arm (the other
end-to-end arms and the planes' on/off price moved to ``perf/``, the
benchmark of record).  It writes ``BENCH_3.json`` at the
repository root so successive PRs leave a perf trajectory, and gates it
against the committed ``BENCH_1.json`` baseline: any shared benchmark more
than 25% slower fails the suite.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_wallclock.py --benchmark-only -s
"""

from __future__ import annotations

from pathlib import Path

from benchmarks.conftest import run_once

from repro.bench.wallclock import format_report, run_suite, write_report

#: committed baseline (PR 1) and where this PR's trajectory point lands
BASELINE_JSON = Path(__file__).resolve().parents[1] / "BENCH_1.json"
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_3.json"

#: shared benchmarks may not be more than 25% slower than the baseline
REGRESSION_THRESHOLD = 1.25


def test_wallclock_suite(benchmark):
    report = run_once(benchmark, lambda: run_suite(quick=False))
    print()
    print(format_report(report))
    write_report(str(BENCH_JSON), report)
    print(f"wrote {BENCH_JSON}")
    names = {entry["name"] for entry in report["benchmarks"]}
    assert "wire/encoded_size_update_64x64" in names
    assert "collab/broadcast_poll_30_subscribers" in names
    assert "storage/append_jsonl" in names
    # perf/ times E1/E2/E11/E12 and the planes on/off; one e2e arm is left
    assert {n for n in names if n.startswith("e2e/")} == {"e2e/E1_n1000"}
    assert all(entry["per_op_us"] > 0 for entry in report["benchmarks"])


def test_no_regression_vs_baseline():
    """The freshly-written BENCH_3.json must hold the BENCH_1.json line.

    Uses the same gate CI runs (``tools/check_bench_regression.py``): every
    benchmark present in both reports must be within the 25% threshold.
    Entries only in one report (new arms like ``e2e/E1_n1000``) are exempt.
    """
    import sys

    sys.path.insert(0, str(BASELINE_JSON.parent / "tools"))
    try:
        from check_bench_regression import main as gate
    finally:
        sys.path.pop(0)
    if not BENCH_JSON.exists():  # bench suite not run in this session
        import pytest
        pytest.skip("BENCH_3.json not generated (run test_wallclock_suite)")
    rc = gate(["--baseline", str(BASELINE_JSON),
               "--candidate", str(BENCH_JSON),
               "--threshold", str(REGRESSION_THRESHOLD)])
    assert rc == 0, "wall-clock regression vs BENCH_1.json (see output)"
