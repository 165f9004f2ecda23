#!/usr/bin/env python
"""What the frame path costs the host, unprofiled.

Every operation of every ``perf/workloads.py`` workload sizes a payload,
builds a ``Frame``, walks a route, counts each hop and hands the frame
off.  This times that path with plain ``time.perf_counter`` wrappers (no
``cProfile``, which taxes call-heavy code) over the timed window of one
workload, imported read-only: ``Network.send`` (sizing included), the
network's ``freeze_size`` alone, and ``_Delivery._arrive`` (hand-off
included).  Each wrapper runs in a child interpreter of its own, so the
wrappers never nest and a reading is inclusive time of that one function;
none of the three runs another simulation process's code.  The hop
arrivals it saw must equal the workload's own ``net.frames`` boundary
count, or the exit status is 1::

    python tools/frame_path.py --workload client_polls --seed 0 [--quick]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: wrapped function -> its row label
TARGETS = {
    "send": "Network.send",
    "size": "  of which freeze_size",
    "arrive": "_Delivery._arrive",
}


def measure(workload: str, seed: int, scale: float, target: str) -> dict:
    """Run one workload with ``target`` wrapped over its timed window
    (``src/`` and ``perf/`` must be importable)."""
    import workloads
    from repro.net import network

    owner, name = {
        "send": (network.Network, "send"),
        "size": (network, "freeze_size"),
        "arrive": (network._Delivery, "_arrive"),
    }[target]
    plain = getattr(owner, name)
    clock = time.perf_counter
    calls = 0
    seconds = 0.0
    running = False

    def timed(*args, **kwargs):
        nonlocal calls, seconds, running
        calls += 1
        if running:  # a zero-latency hop landing inside the previous one
            return plain(*args, **kwargs)
        running = True
        t0 = clock()
        try:
            return plain(*args, **kwargs)
        finally:
            seconds += clock() - t0
            running = False

    with tempfile.TemporaryDirectory() as workdir:
        window, finish = workloads.WORKLOADS[workload](seed, scale, workdir)
        setattr(owner, name, timed)
        try:
            t0 = clock()
            for _slice in window():
                pass
            window_s = clock() - t0
        finally:
            setattr(owner, name, plain)
        outcome = finish()
    return {"target": target, "calls": calls, "seconds": seconds,
            "window_s": window_s, "ops": outcome.ops,
            "net_frames": outcome.counters["net.frames"]}


def format_table(workload: str, seed: int, rows: dict) -> str:
    arrive = rows["arrive"]
    lines = [f"{workload} seed {seed}: {arrive['ops']} ops, "
             f"{arrive['net_frames']} frame hops (net.frames), "
             f"{rows['send']['calls']} frames sent",
             f"{'function':<24}{'calls':>9}{'us/call':>9}{'window s':>10}"
             f"{'share':>8}"]
    for target, label in TARGETS.items():
        row = rows[target]
        lines.append(
            f"{label:<24}{row['calls']:>9}"
            f"{row['seconds'] / max(row['calls'], 1) * 1e6:>9.2f}"
            f"{row['window_s']:>10.3f}"
            f"{row['seconds'] / row['window_s']:>8.1%}")
    send = rows["send"]
    # per frame sent: a frame that crosses several links arrives several times
    per_frame = (send["seconds"] + arrive["seconds"]) / max(send["calls"], 1)
    share = (send["seconds"] / send["window_s"]
             + arrive["seconds"] / arrive["window_s"])
    lines.append(f"{'send + arrive, per frame':<24}{'':>9}"
                 f"{per_frame * 1e6:>9.2f}{'':>10}{share:>8.1%}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one tenth size, as perf/run.py --quick")
    parser.add_argument("--wrap", choices=list(TARGETS),
                        help="(child) time this one function, print JSON")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)}")
    if args.wrap is not None:
        print(json.dumps(measure(args.workload, args.seed,
                                 0.1 if args.quick else 1.0, args.wrap)))
        return 0
    rows = {}
    for target in TARGETS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload,
             "--seed", str(args.seed), "--wrap", target]
            + (["--quick"] if args.quick else []),
            stdout=subprocess.PIPE, text=True)
        if child.returncode != 0:
            return child.returncode
        rows[target] = json.loads(child.stdout.splitlines()[-1])
    print(format_table(args.workload, args.seed, rows))
    frames = {row["net_frames"] for row in rows.values()}
    if frames != {rows["arrive"]["calls"]}:
        print(f"frame_path: saw {rows['arrive']['calls']} hop arrivals, "
              f"the workload's net.frames boundary says {sorted(frames)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
