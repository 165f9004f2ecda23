#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``: parent, change.

``python3 perf/compare.py A.json B.json`` prints, for every workload and
end-to-end metric, both readings with the quartiles of their rounds, the
ratio B/A with its base, and a verdict against the bound BENCHMARK.json
fixes:

- ``regressed``  — B's reading is worse than A's by more than the bound;
- ``improved``   — every round of B reads better than every round of A,
  and the readings differ by more than the spread of A's own rounds;
- ``unresolved`` — neither, and the spread between rounds exceeds the
  bound (or a side has fewer than three rounds), so "no change" cannot
  be claimed;
- ``unchanged``  — otherwise.

When both files used the same seed and size, simulated latencies must be
equal to the digit (their bound is 0), the ``sim_digest`` of every
workload must match, and every per-layer count that differs is listed as
``moved`` (files from ``run.py --trace`` carry them).  Exits 1 on any
``regressed`` row, failed operation or digest mismatch.
"""

import json
import statistics
import sys
from pathlib import Path

from run import end_to_end, kind_of, quartiles

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def judge(reading_a: float, reading_b: float, each_a: list, each_b: list,
          better: str, bound: float) -> str:
    """Verdict on one metric from both sides' readings and the readings
    of their rounds taken one at a time."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (reading_b - reading_a) / reading_a
    if worse_by > bound:
        return "regressed"
    if bound == 0.0:  # an exact metric: any move counts
        return "improved" if worse_by < 0 else "unchanged"
    if min(len(each_a), len(each_b)) < 3:
        return "unresolved"  # too few rounds to know the spread
    if (all(sign * (y - x) < 0 for x in each_a for y in each_b)
            and -worse_by > spread(each_a)):
        return "improved"
    if max(spread(each_a), spread(each_b)) > bound:
        return "unresolved"
    return "unchanged"


def compare(spec: dict, a: dict, b: dict) -> int:
    """Print the table; returns the number of failing rows."""
    same_inputs = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    if not same_inputs:
        print("seeds or sizes differ: simulated latencies are judged by "
              "their bound and digests are not compared")
    failures = 0
    print(f"{'workload':<17} {'metric':<14} {'A reading [q1..q3]':>36} "
          f"{'B reading [q1..q3]':>36}  {'B/A':>7}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"{name:<17} missing from B")
            failures += 1
            continue
        rounds_a = a["workloads"][name]["rounds"]
        rounds_b = b["workloads"][name]["rounds"]
        (reading_a, each_a), (reading_b, each_b) = (
            (end_to_end(rounds), [end_to_end([r]) for r in rounds])
            for rounds in (rounds_a, rounds_b))
        for metric in spec["end_to_end"]:
            key = metric["name"]
            series_a = [v[key] for v in each_a]
            series_b = [v[key] for v in each_b]
            exact = same_inputs and key.startswith("sim_")
            verdict = judge(reading_a[key], reading_b[key], series_a,
                            series_b, metric["better"],
                            0.0 if exact else metric["bound"])
            failures += verdict == "regressed"
            cells = []
            for reading, series in ((reading_a, series_a),
                                    (reading_b, series_b)):
                q1, q3 = quartiles(series)
                cells.append(f"{reading[key]:.4f} [{q1:.4f}..{q3:.4f}]")
            print(f"{name:<17} {key:<14} {cells[0]:>36} {cells[1]:>36}  "
                  f"{reading_b[key] / reading_a[key]:7.4f}  {verdict} "
                  f"(base A = {reading_a[key]:.4f} {metric['unit']})")
        failed = sum(r["failed"] for r in rounds_b)
        if failed:
            print(f"{name:<17} error_rate: {failed} operations failed in B")
            failures += 1
        layers_a = a["workloads"][name].get("per_layer")
        layers_b = b["workloads"][name].get("per_layer")
        if same_inputs and layers_a and layers_b:
            # counts repeat exactly on one commit, so a move is the change's
            for metric in spec["per_layer"]:
                key = metric["name"]
                if (kind_of(key, metric["unit"]) == "count"
                        and layers_a[key] != layers_b[key]):
                    print(f"{name:<17} {key:<32} {layers_a[key]:.4f} -> "
                          f"{layers_b[key]:.4f} {metric['unit']}  moved")
        if same_inputs:
            digests = (rounds_a[0]["sim_digest"], rounds_b[0]["sim_digest"])
            if digests[0] != digests[1]:
                print(f"{name:<17} sim_digest mismatch: {digests[0][:16]} "
                      f"!= {digests[1][:16]} — the model's outputs changed")
                failures += 1
    return failures


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = (json.loads(Path(p).read_text()) for p in sys.argv[1:])
    return 1 if compare(spec, a, b) else 0


if __name__ == "__main__":
    sys.exit(main())
