#!/usr/bin/env python
"""Gate the per-operation cost trajectory: drill vs committed baseline.

``perf/compare.py`` catches "the suite got slower"; this gate catches
*why*-class regressions one level down: "the modeled middleware got
fatter per operation".  It re-runs the deterministic quick
noisy-neighbor drill (E14, fixed seed — every cost below is virtual and
bit-for-bit reproducible), rolls the ledger up by (plane, operation),
and compares each operation's deterministic cost dimensions (requests,
sim events, modeled CPU µs, wire bytes, WAL appends — never wall-µs)
against the committed ``COSTS_BASELINE.json``.

Because the workload is deterministic, the expected ratio is exactly
1.0: any drift means a code change altered modeled costs.  The default
threshold still allows 10% so intentional small reshapes (an extra
control message, a header field) don't demand a baseline refresh, while
"locate_app got 20% more expensive" fails CI with the operation named.

Operations present in only one report are listed but never fail the
gate (new planes must be free to appear).  From the same run the gate
also holds the exported snapshot (``/status/costs``, ``repro costs
--export``) to its own entries: every dimension's heavy hitters are the
ranking of the entries beside them and its total is their sum.  After an
intentional cost change, refresh the baseline with::

    PYTHONPATH=src python tools/check_cost_regression.py --update
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import zip_longest
from pathlib import Path

#: every dimension but spans, which depend on the tracer's sampling
GATED_DIMENSIONS = ("requests", "events", "cpu_us", "lan_bytes",
                    "wan_bytes", "wal_appends", "errors",
                    "dropped_frames", "dropped_bytes")

#: committed baseline, at the repository root
BASELINE = Path(__file__).resolve().parents[1] / "COSTS_BASELINE.json"


def measured_costs() -> tuple:
    """Per-(plane/operation) deterministic cost dims from the quick drill,
    and the ledger's snapshot with every principal listed."""
    from repro.bench.experiments import EXPERIMENTS

    (row,), fleet = EXPERIMENTS["E14"].run(quick=True)
    ledger = fleet.ledger
    ops = {}
    for op, dims in ledger.by_operation().items():
        ops[op] = {d: dims.get(d, 0) for d in GATED_DIMENSIONS}
    snapshot = ledger.snapshot(top=len(ledger.entries))
    fleet.stop()
    return {
        "scenario": "E14 quick (10 servers, 300 sessions, seed 0)",
        "dimensions": list(GATED_DIMENSIONS),
        "operations": ops,
        "drill": {"partition_exact": row["partition_exact"],
                  "flooder_top_all_dims": row["flooder_top_all_dims"]},
    }, snapshot


def snapshot_disagreements(snapshot: dict) -> list:
    """One line per dimension on which a ledger snapshot contradicts its
    own entries (heavy hitters not their ranking, total not their sum)."""
    lines = []
    for dim in snapshot["dimensions"]:
        counts: dict = {}
        for entry in snapshot["entries"]:
            who = entry["principal"]
            counts[who] = counts.get(who, 0) + entry[dim]
        ranked = [[who, n, 0] for who, n
                  in sorted(counts.items(), key=lambda pc: (-pc[1], pc[0]))
                  if n]
        hitters = snapshot["heavy_hitters"][dim]
        for listed, exact in zip_longest(hitters, ranked):
            if listed != exact:
                lines.append(f"{dim}: heavy hitters list {listed} where "
                             f"the entries rank {exact}")
                break
        if snapshot["totals"][dim] != sum(counts.values()):
            lines.append(f"{dim}: total {snapshot['totals'][dim]} is not "
                         f"the entries' sum {sum(counts.values())}")
    return lines


def compare(baseline: dict, candidate: dict, threshold: float) -> int:
    base_ops = baseline["operations"]
    cand_ops = candidate["operations"]
    shared = sorted(set(base_ops) & set(cand_ops))
    if not shared:
        print("error: no shared operations between baseline and candidate")
        return 1

    failures = []
    width = max(len(op) for op in shared)
    for op in shared:
        for dim in GATED_DIMENSIONS:
            base = base_ops[op].get(dim, 0)
            cand = cand_ops[op].get(dim, 0)
            if base == cand:
                continue
            ratio = cand / base if base else float("inf")
            line = (f"{op:<{width}}  {dim:<14} {base:>12} -> {cand:>12} "
                    f"({ratio:.2f}x)")
            if ratio > threshold or ratio < 1 / threshold:
                failures.append(f"{line}  REGRESSED")
            else:
                print(f"{line}  drift within threshold")
    for op in sorted(set(cand_ops) - set(base_ops)):
        print(f"{op:<{width}}  new operation (not gated)")
    for op in sorted(set(base_ops) - set(cand_ops)):
        print(f"{op:<{width}}  retired operation (not gated)")

    if failures:
        print(f"\nFAIL: per-operation cost moved more than "
              f"{(threshold - 1) * 100:.0f}% vs {BASELINE.name}:")
        for line in failures:
            print(f"  {line}")
        print("intentional? refresh with: "
              "PYTHONPATH=src python tools/check_cost_regression.py --update")
        return 1
    print(f"OK: {len(shared)} operations' cost vectors within "
          f"{(threshold - 1) * 100:.0f}% of {BASELINE.name}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(BASELINE))
    parser.add_argument("--threshold", type=float, default=1.10,
                        help="fail when candidate/baseline leaves "
                             "[1/t, t] (default 1.10 = ±10%%)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline from this run")
    args = parser.parse_args(argv)

    candidate, snapshot = measured_costs()
    if not candidate["drill"]["partition_exact"]:
        print("error: drill attribution no longer partitions exactly")
        return 1
    disagreements = snapshot_disagreements(snapshot)
    if disagreements:
        print("FAIL: the exported snapshot disagrees with its own entries:")
        for line in disagreements:
            print(f"  {line}")
        return 1
    if args.update:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(candidate, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"baseline written to {args.baseline} "
              f"({len(candidate['operations'])} operations)")
        return 0
    if not Path(args.baseline).exists():
        print(f"error: {args.baseline} missing — generate with --update")
        return 1
    with open(args.baseline, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    return compare(baseline, candidate, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
