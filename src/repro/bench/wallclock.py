"""Wall-clock performance harness (the BENCH_*.json trajectory).

Every benchmark under ``benchmarks/`` measures *virtual* time — the science
of the paper.  This module measures the *real* seconds the simulator itself
burns, so the repository's own scalability (ROADMAP: "as fast as the
hardware allows") is tracked with numbers instead of folklore.  Each run
produces a JSON report::

    PYTHONPATH=src python -m repro.bench.wallclock --output BENCH_1.json

The suite times the inputs nothing else times: the wire fast path
(sizing, encoding, the single-encode broadcast fan-out), raw network
delivery, the broadcast/poll loop, the storage journal, one health
heartbeat, and one fleet-scale arm (``e2e/E1_n1000``).  End-to-end
E1/E2/E11/E12 timing and the planes' on/off price live in ``perf/`` (the
benchmark of record: ``app_updates`` vs ``app_updates_bare``,
``client_polls``, ``fleet_sessions``, ``crash_recovery``); the ``e2e/*``
arms that timed
them here a second way are gone, so ``BENCH_1–3.json`` are history for
those names.  ``--quick`` runs a reduced version suitable for CI smoke
checks.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Callable, Dict, List, Optional

import numpy as np

#: report schema version; bump if entry fields change
SCHEMA = 1


def time_op(fn: Callable[[], object], *, repeat: int = 5,
            number: int = 100) -> float:
    """Best-of-``repeat`` wall seconds for one call of ``fn``.

    ``fn`` is called ``number`` times per round; the fastest round is
    reported (standard microbenchmark practice — minimum is the least
    noisy estimator of the true cost).
    """
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed / number)
    return best


def _entry(name: str, per_op_s: float, ops: int = 1,
           note: str = "") -> Dict:
    entry = {
        "name": name,
        "per_op_us": per_op_s * 1e6,
        "ops": ops,
    }
    if note:
        entry["note"] = note
    return entry


# ---------------------------------------------------------------------------
# micro: wire layer
# ---------------------------------------------------------------------------

def _update_message():
    from repro.wire import UpdateMessage
    grid = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
    return UpdateMessage(payload={"grid": grid, "label": "bench-step",
                                  "seq": 1}, seq=1, timestamp=2.5)


def bench_wire(quick: bool = False) -> List[Dict]:
    """Sizing and encoding of an array-bearing update message."""
    from repro.wire import encode, encoded_size, freeze_size
    from repro.web.http import HttpResponse

    repeat = 3 if quick else 7
    number = 50 if quick else 500
    msg = _update_message()
    out = [
        _entry("wire/encoded_size_update_64x64",
               time_op(lambda: encoded_size(msg), repeat=repeat,
                       number=number),
               note="size visitor, no bytes materialized"),
        _entry("wire/encode_update_64x64",
               time_op(lambda: encode(msg), repeat=repeat, number=number)),
    ]

    # The broadcast fan-out path: one update frozen once (as
    # CollaborationManager.push_to_client does), then sized as part of 30
    # distinct poll responses — the per-subscriber cost of a broadcast.
    n_subs = 30

    def fanout():
        m = _update_message()
        freeze_size(m)
        total = 0
        for i in range(n_subs):
            total += encoded_size(HttpResponse(i, body=[m]))
        return total

    out.append(_entry(
        f"wire/broadcast_sizing_{n_subs}_subscribers",
        time_op(fanout, repeat=repeat, number=max(1, number // 10)),
        ops=n_subs,
        note="freeze once + size 30 poll responses"))
    return out


# ---------------------------------------------------------------------------
# micro: network delivery
# ---------------------------------------------------------------------------

def bench_network(quick: bool = False) -> List[Dict]:
    """Wall cost of Network.send + delivery, loopback and 3-hop: a fresh
    registered message per frame, sent inside a span on a network with
    the tracer and the ledger attached as ``build_collaboratory`` attaches
    them — sized, stamped, counted per hop, charged and spanned."""
    from repro.net import Network
    from repro.obs import RequestCostLedger, Tracer
    from repro.sim import Simulator
    from repro.wire import ControlMessage

    n_frames = 200 if quick else 2000
    results = []
    for label, hops in (("loopback", 0), ("3_hop", 3)):
        sim = Simulator()
        net = Network(sim)
        net.tracer = tracer = Tracer(sim)
        net.cost_ledger = tracer.ledger = RequestCostLedger(sim)
        names = [f"h{i}" for i in range(max(2, hops + 1))]
        for name in names:
            net.add_host(name)
        for a, b in zip(names, names[1:]):
            net.add_link(a, b, latency=0.001)
        src, dst = names[0], (names[0] if hops == 0 else names[-1])
        net.hosts[dst].bind(9)
        messages = [ControlMessage("bench", detail="x" * 200, sender=src,
                                   destination=dst)
                    for _ in range(n_frames)]

        t0 = time.perf_counter()
        with tracer.span("bench", plane="bench", server=src):
            for msg in messages:
                net.send(src, 1, dst, 9, msg)
        sim.run()
        elapsed = time.perf_counter() - t0
        results.append(_entry(
            f"net/send_{label}", elapsed / n_frames, ops=n_frames,
            note="exact counts: tests/net/test_frame_cost.py"))
    return results


# ---------------------------------------------------------------------------
# macro: collaboration broadcast through real sessions
# ---------------------------------------------------------------------------

def bench_broadcast(quick: bool = False, n_subscribers: int = 30) -> List[Dict]:
    """broadcast_update to N real sessions + sizing their poll batches."""
    from repro.core.collaboration import CollaborationManager
    from repro.sim import Simulator
    from repro.web.http import HttpResponse
    from repro.wire import UpdateMessage, encoded_size

    rounds = 50 if quick else 500
    sim = Simulator()
    mgr = CollaborationManager(sim, "bench-server")
    clients = []
    for _ in range(n_subscribers):
        session = mgr.create_session("bench")
        mgr.subscribe(session.client_id, "bench-server#a1")
        clients.append(session)

    grid = np.arange(32 * 32, dtype=np.float64).reshape(32, 32)

    def one_round(seq: int) -> int:
        msg = UpdateMessage(payload={"grid": grid, "seq": seq}, seq=seq,
                            timestamp=float(seq))
        mgr.broadcast_update("bench-server#a1", msg)
        total = 0
        for session in clients:  # every subscriber polls its buffer
            batch = []
            item = session.buffer.try_get()
            while item is not None:
                batch.append(item)
                item = session.buffer.try_get()
            total += encoded_size(HttpResponse(seq, body=batch))
        return total

    t0 = time.perf_counter()
    for seq in range(rounds):
        one_round(seq)
    elapsed = time.perf_counter() - t0
    return [_entry(f"collab/broadcast_poll_{n_subscribers}_subscribers",
                   elapsed / rounds, ops=rounds,
                   note="broadcast_update + drain + size poll responses")]


# ---------------------------------------------------------------------------
# macro: the one fleet-scale end-to-end arm
# ---------------------------------------------------------------------------

def bench_end_to_end(quick: bool = False) -> List[Dict]:
    """1000 registered applications against one server, best of three.

    Infeasible before the batched simulator core (PR 6) and not a
    ``perf/`` workload shape; kept at a short virtual duration so the
    suite stays CI-sized, and skipped under ``--quick``.
    """
    if quick:
        return []
    from repro.bench.scenarios import run_app_scalability

    return [_entry("e2e/E1_n1000",
                   time_op(lambda: run_app_scalability(1000, duration=5.0),
                           repeat=3, number=1),
                   note="virtual duration 5.0s, 1000 apps")]


def bench_storage(quick: bool = False) -> List[Dict]:
    """Durable-state-plane costs: WAL append (both backends) and snapshot
    + compaction.

    The append benches go through the :class:`~repro.storage.StateJournal`
    facade — the exact call every journaled plane mutation makes — so the
    ``storage/append_*`` numbers ARE the per-mutation tax the durable
    state plane adds to the hot path.  The in-memory backend is the
    deployment default; the JSONL numbers price real disk durability.
    """
    import tempfile

    from repro.storage import (
        JsonlBackend,
        MemoryBackend,
        StateJournal,
    )

    repeat = 3 if quick else 7
    number = 200 if quick else 2000
    results = []

    # In-memory append: the default deployment's per-mutation cost.
    mem_journal = StateJournal(MemoryBackend(), snapshot_every=0)
    mem_journal.register_plane(
        "bench", snapshot=dict, restore=lambda s: None,
        apply=lambda e, d, at: None)
    payload = {"table": "session", "record_id": 1, "owner": "bench",
               "data": {"app_id": "d0#a1", "kind": "command"}}
    results.append(_entry(
        "storage/append_memory",
        time_op(lambda: mem_journal.append("db.insert", payload),
                repeat=repeat, number=number),
        note="StateJournal.append, in-memory backend (default)"))

    def disk_journal(tmp):
        journal = StateJournal(JsonlBackend(tmp), snapshot_every=0)
        journal.register_plane(
            "bench", snapshot=dict, restore=lambda s: None,
            apply=lambda e, d, at: None)
        # archived, as the server's record store is
        journal.register_plane("db", apply=lambda e, d, at: None)
        return journal

    with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
        journal = disk_journal(tmp)
        results.append(_entry(
            "storage/append_jsonl",
            time_op(lambda: journal.append("db.insert", payload),
                    repeat=repeat, number=max(1, number // 4)),
            note="StateJournal.append, JSONL backend, flush per record"))
        journal.backend.close()

    # Snapshot + compaction over a WAL tail of fixed length, with and
    # without a long archive behind it: a snapshot's cost must follow the
    # tail, so the two per-op numbers belong side by side.
    tail = 100 if quick else 500
    for archived, suffix in ((0, ""), (5000, "_archive5000")):
        with tempfile.TemporaryDirectory(prefix="bench-storage-") as tmp:
            journal = disk_journal(tmp)
            for _ in range(archived):
                journal.append("db.insert", payload)
            journal.take_snapshot()

            def snap_cycle():
                for _ in range(tail):
                    journal.append("db.insert", payload)
                journal.take_snapshot()

            results.append(_entry(
                f"storage/snapshot_compact_tail{tail}{suffix}",
                time_op(snap_cycle, repeat=repeat, number=1), ops=tail,
                note=f"append {tail} records + snapshot + compact (JSONL) "
                     f"behind {archived} archived records"))
            journal.backend.close()
    return results


def bench_health(quick: bool = False) -> List[Dict]:
    """One heartbeat on a server with a short and a long retained history.

    A tick reads burn-rate windows of at most 20 sim-s out of the
    server's time-series registry, so its cost must follow the windows,
    not the history behind them: the two per-op numbers belong side by
    side.  The exact form of that statement (buckets read, no timing) is
    tests/obs/test_timeseries_cost.py.
    """
    from repro.core.deployment import build_single_server

    repeat = 3 if quick else 7
    number = 50 if quick else 500
    results = []
    for history in (40, 400):
        collab = build_single_server(app_hosts=1, client_hosts=1)
        collab.run_bootstrap()
        sim, server = collab.sim, collab.server_of(0)
        metrics, health = server.pipeline_metrics, server.health

        def requests():
            while True:
                yield sim.timeout(0.25)
                metrics.observe("http", latency=0.01)

        sim.spawn(requests(), name="bench-requests")
        sim.run(until=history)

        def beat():
            metrics.observe("http", latency=0.01)  # the p99 read is fresh
            health.tick()

        results.append(_entry(
            f"health/heartbeat_history_{history}s",
            time_op(beat, repeat=repeat, number=number),
            note=f"HealthMonitor.tick() after {history} sim-s of 4 "
                 "requests/s (2 default SLOs, 0.25 s buckets)"))
        collab.stop()
    return results


# ---------------------------------------------------------------------------
# suite + report
# ---------------------------------------------------------------------------

def run_suite(quick: bool = False) -> Dict:
    """Run every wall-clock bench; returns the full report dict."""
    benchmarks: List[Dict] = []
    for group in (bench_wire, bench_network, bench_broadcast,
                  bench_end_to_end, bench_storage, bench_health):
        benchmarks.extend(group(quick=quick))
    return {
        "schema": SCHEMA,
        "quick": quick,
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "numpy": np.__version__,
        },
        "benchmarks": benchmarks,
    }


def write_report(path: str, report: Dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=False)
        fh.write("\n")


def format_report(report: Dict) -> str:
    from repro.bench.report import format_table
    rows = [{"benchmark": e["name"], "per_op_us": e["per_op_us"],
             "note": e.get("note", "")} for e in report["benchmarks"]]
    return format_table(rows, ["benchmark", "per_op_us", "note"],
                        title="wall-clock benchmarks (lower is better)")


def export_trace(path: str) -> Dict:
    """Run the traced cross-server scenario and export its spans as JSONL.

    Not part of the timed suite — trace capture is a side artifact (CI
    uploads it for Perfetto inspection), so it must never perturb the
    BENCH_*.json numbers.
    """
    from repro.bench.scenarios import run_traced_remote_command
    from repro.obs import export_jsonl

    row, tracer, _registry = run_traced_remote_command()
    export_jsonl(tracer.store, path)
    return {
        "path": path,
        "spans": len(tracer.store),
        "traces": len(tracer.store.trace_ids()),
        "result": row.get("result"),
    }


def export_log(path: str) -> Dict:
    """Run the fault-injection scenario streaming its structured log.

    Every server's :class:`~repro.obs.StructuredLog` shares one JSONL
    sink, so the file interleaves the whole fleet's records in event
    order — sim-time-stamped, trace-correlated, machine-readable.  Like
    :func:`export_trace`, this is a side artifact, never timed.
    """
    from repro.bench.experiments import EXPERIMENTS

    lines = 0
    with open(path, "w", encoding="utf-8") as fh:
        def sink(line: str) -> None:
            nonlocal lines
            fh.write(line + "\n")
            lines += 1

        (row,), _collab = EXPERIMENTS["E10b"].run(quick=True, log_sink=sink)
    return {
        "path": path,
        "records": lines,
        "victim_status": row["victim_status"],
        "detection_latency_s": row["detection_latency_s"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the wall-clock performance suite.")
    parser.add_argument("--output", "-o", default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke)")
    parser.add_argument("--trace-output", default=None,
                        help="also export a JSONL span trace of the "
                             "cross-server steering scenario")
    parser.add_argument("--log-output", default=None,
                        help="also export the fleet's structured log "
                             "(JSONL) from the fault-injection scenario")
    args = parser.parse_args(argv)
    report = run_suite(quick=args.quick)
    print(format_report(report))
    if args.output:
        write_report(args.output, report)
        print(f"report written to {args.output}")
    if args.trace_output:
        info = export_trace(args.trace_output)
        print(f"trace written to {info['path']} "
              f"({info['spans']} spans, {info['traces']} traces)")
    if args.log_output:
        info = export_log(args.log_output)
        print(f"structured log written to {info['path']} "
              f"({info['records']} records, victim "
              f"{info['victim_status']})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
