"""Wall-clock performance of the simulator itself (BENCH trajectory).

Unlike every other benchmark in this directory — which reproduces a *paper*
measurement in virtual time — this one measures the real seconds the
reproduction burns on the wire fast path, network delivery, broadcast
fan-out, the storage journal and one fleet-scale E1 arm (the other
end-to-end arms and the planes' on/off price moved to ``perf/``, the
benchmark of record).  It writes ``BENCH_3.json`` at the
repository root; ``BENCH_1.json``–``BENCH_3.json`` are the history
EXPERIMENTS cites.  Nothing is gated here: absolute microseconds from
another machine resolve no threshold, and parent-against-change timing is
``perf/compare.py``'s job.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_wallclock.py --benchmark-only -s
"""

from __future__ import annotations

from pathlib import Path

from benchmarks.conftest import run_once

from repro.bench.wallclock import format_report, run_suite, write_report

#: where a fresh report lands
BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_3.json"


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
