#!/usr/bin/env python3
"""The repository benchmark.  See README.md beside this file.

``python3 perf/run.py --seed 0`` runs every workload of BENCHMARK.json
round-robin, each round in a fresh child process, and prints every
end-to-end metric by name with its unit and whether it is host or
simulated time; ``--trace`` adds one profiled run per workload and the
per-layer table.  With ``--workload NAME`` it runs that workload alone
and ends with one JSON line (the form the PR driver calls).
"""

import time

_T0 = time.perf_counter()  # child start: set-up time is counted from here

import argparse
import contextlib
import json
import math
import os
import statistics
import subprocess
import sys
from heapq import heappop, heappush
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"
QUICK_SCALE = 0.1
CHILD_TIMEOUT = 170.0


# ---------------------------------------------------------------------------
# child: one round of one workload
# ---------------------------------------------------------------------------

def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


#: host seconds are reported as seconds of a host on which
#: :func:`host_speed` reads this value, so a run made while the machine is
#: in a slow spell does not read as a slower program
REFERENCE_BURST_S = 0.003


def burst() -> float:
    """Seconds a fixed piece of interpreter work takes right now: the
    kernel's own mix of heap pushes, dict updates, generator resumes and
    float arithmetic."""
    t0 = time.perf_counter()
    heap: list = []
    table: dict = {}

    def ticker():
        k = 0
        while True:
            k += 1
            yield k

    tick = ticker()
    for i in range(6000):
        heappush(heap, ((i * 7919) % 1013, i))
        if i & 3 == 3:
            heappop(heap)
        key = i % 97
        table[key] = table.get(key, 0.0) + next(tick) * 0.5
    return time.perf_counter() - t0


def host_speed() -> float:
    """Best of three bursts, so a pre-emption is not read as a slow host."""
    return min(burst(), burst(), burst())


def run_child(name: str, seed: int, scale: float, profile: bool) -> dict:
    import hashlib
    import resource
    import shutil

    speeds = [host_speed()]
    sys.path.insert(0, str(SRC))
    import workloads

    workdir = OUT / "tmp" / str(os.getpid())
    profiler = None
    if profile:
        import cProfile
        profiler = cProfile.Profile()
    try:
        window, finish = workloads.WORKLOADS[name](seed, scale, str(workdir))
        setup_raw = time.perf_counter() - _T0
        speeds.append(host_speed())
        setup_s = setup_raw * REFERENCE_BURST_S / statistics.mean(speeds)
        # the window runs slice by slice with a speed reading between
        # slices; each slice's seconds are scaled by the readings around it
        raw_wall = 0.0
        slice_wall_s, slice_cpu_s = [], []
        slices = window()
        while True:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            with profiler or contextlib.nullcontext():
                ended = next(slices, "ended") == "ended"
            if ended:
                break
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            speeds.append(host_speed())
            factor = REFERENCE_BURST_S / statistics.mean(speeds[-2:])
            raw_wall += wall
            slice_wall_s.append(wall * factor)
            slice_cpu_s.append(cpu * factor)
        outcome = finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ordered = sorted(outcome.latencies)
    counters = outcome.counters
    modelled = [outcome.ops, outcome.attempted, outcome.failed,
                [round(s * 1e9) for s in outcome.latencies],
                [counters[key] for key in ("net.frames", "net.bytes",
                                           "net.wan_frames", "net.wan_bytes")],
                repr(counters["sim.now"])]
    result = {
        "setup_s": setup_s, "slice_wall_s": slice_wall_s,
        "slice_cpu_s": slice_cpu_s, "raw_wall_s": raw_wall,
        "burst_ms": statistics.median(speeds) * 1e3,
        "ops": outcome.ops, "attempted": outcome.attempted,
        "failed": outcome.failed, "samples": len(ordered),
        "sim_p50_ms": statistics.median(ordered) * 1e3,
        "sim_p99_ms": percentile(ordered, 0.99) * 1e3,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_digest": hashlib.sha256(
            json.dumps(modelled).encode()).hexdigest(),
        "counters": counters,
    }
    if profiler is not None:
        import pstats

        import layers
        result["profile"] = layers.fold(
            pstats.Stats(profiler).stats,
            layers.repo_layer_of(str(SRC / "repro"), str(PERF)))
    return result


# ---------------------------------------------------------------------------
# parent: spawn rounds, aggregate, print
# ---------------------------------------------------------------------------

def spawn(name: str, seed: int, scale: float, profile: bool = False) -> dict:
    """Run one round in a fresh interpreter and return what it measured."""
    cmd = [sys.executable, str(PERF / "run.py"), "--child", "--workload",
           name, "--seed", str(seed), "--scale", repr(scale)]
    if profile:
        cmd.append("--profile")
    # a fixed hash seed keeps set iteration, hence call counts, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise SystemExit(f"{name}: round failed (exit {proc.returncode})")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(rounds: list) -> dict:
    """The end-to-end reading of some untraced rounds of one workload and
    seed: medians over the rounds.  Every round does the same work slice
    for slice, so host time is the sum over slices of the median across
    rounds — a disturbance costs the slices it hit, not a whole round."""
    ops = rounds[0]["ops"]
    wall_s, cpu_s = (
        sum(statistics.median(column)
            for column in zip(*(r[key] for r in rounds)))
        for key in ("slice_wall_s", "slice_cpu_s"))
    out = {key: statistics.median(r[key] for r in rounds)
           for key in ("setup_s", "sim_p50_ms", "sim_p99_ms", "peak_rss_mb")}
    out["ops_per_s"] = ops / wall_s
    out["cpu_us_per_op"] = cpu_s / ops * 1e6
    return out


def per_layer(untraced: list, traced: dict) -> dict:
    """Layer self time and calls from the traced round; boundary counts
    from the first untraced round (they are the same in every round)."""
    base = untraced[0]
    ops = traced["ops"]
    table = traced["profile"]["layers"]
    total_s = sum(row["self_s"] for row in table.values())
    total_calls = sum(row["calls"] for row in table.values())
    out = {}
    for layer, row in table.items():
        out[f"{layer}.calls_per_op"] = row["calls"] / ops
        out[f"{layer}.self_us_per_op"] = row["self_s"] / ops * 1e6
        out[f"{layer}.self_share"] = row["self_s"] / total_s
    out["all.calls_per_op"] = total_calls / ops
    out["all.traced_wall_s"] = traced["raw_wall_s"]
    out["all.trace_overhead_ratio"] = traced["raw_wall_s"] / statistics.median(
        r["raw_wall_s"] for r in untraced)
    counters = dict(base["counters"])
    events = counters.pop("sim.events")
    out["sim.events_per_op"] = events / base["ops"]
    out["sim.events_per_s"] = (events / base["ops"]
                               * end_to_end(untraced)["ops_per_s"])
    out["net.frames_per_op"] = counters.pop("net.frames") / base["ops"]
    out["net.wan_bytes_per_op"] = counters.pop("net.wan_bytes") / base["ops"]
    out.update(counters)
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def kind_of(name: str, unit: str) -> str:
    if name.startswith("sim_"):
        return "simulated"
    if unit in ("s", "ms", "us", "us/op", "1/s", "MB", "share", "ratio"):
        return "host"
    return "count"


def print_end_to_end(spec: dict, name: str, rounds: list) -> None:
    print(f"\n== {name}: {len(rounds)} round(s), "
          f"{rounds[0]['ops']} ops/round, "
          f"{rounds[0]['samples']} latency samples ==")
    reading = end_to_end(rounds)
    each = [end_to_end([r]) for r in rounds]
    for metric in spec["end_to_end"]:
        q1, q3 = quartiles([v[metric["name"]] for v in each])
        print(f"  {metric['name']:<14} {reading[metric['name']]:>14.4f} "
              f"{metric['unit']:<4} [{q1:.4f} .. {q3:.4f}]  "
              f"{kind_of(metric['name'], metric['unit'])} time, "
              f"{metric['better']} is better")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(f"  {'error_rate':<14} {failed / attempted:>14.4f} "
          f"     ({failed} failed of {attempted} attempted)")
    print(f"  sim_digest     {rounds[0]['sim_digest']}")
    raw = statistics.median(r["raw_wall_s"] for r in rounds)
    burst_ms = statistics.median(r["burst_ms"] for r in rounds)
    print(f"  (uncalibrated: window {raw:.3f} s wall; calibration burst "
          f"{burst_ms:.3f} ms against {REFERENCE_BURST_S * 1e3:.0f} ms "
          "reference)")


def print_per_layer(spec: dict, name: str, values: dict) -> None:
    print(f"\n== {name}: per layer (traced run: compare shares, not "
          "absolute times) ==")
    for metric in spec["per_layer"]:
        print(f"  {metric['name']:<32} {values[metric['name']]:>16.4f} "
              f"{metric['unit']:<9} "
              f"{kind_of(metric['name'], metric['unit'])}")


def measure(spec: dict, names: list, seed: int, scale: float,
            seconds: float, trace: bool) -> dict:
    """Untraced rounds round-robin over ``names``, so machine drift
    spreads evenly, until each workload has measured for ``seconds``;
    then, with ``trace``, one profiled round each.  Returns
    ``{name: {"rounds": [...], "per_layer": {...}}}``."""
    # a throw-away round first: just after idle this host runs slow for a
    # second or so, and the page cache may be cold
    spawn(names[0], seed, QUICK_SCALE)
    rounds = {name: [] for name in names}
    pending = list(names)
    while pending:
        for name in list(pending):
            done = rounds[name]
            done.append(spawn(name, seed, scale))
            if done[-1]["sim_digest"] != done[0]["sim_digest"]:
                raise SystemExit(f"{name}: sim_digest differs between "
                                 "rounds of one seed")
            walls = [r["raw_wall_s"] for r in done]
            # stop when one more window would overshoot by more than half
            if sum(walls) + statistics.median(walls) / 2 > seconds:
                pending.remove(name)
    results = {}
    for name in names:
        results[name] = {"rounds": rounds[name]}
        print_end_to_end(spec, name, rounds[name])
    if trace:
        OUT.mkdir(exist_ok=True)
        for name in names:
            traced = spawn(name, seed, scale, profile=True)
            edges = OUT / f"{name}.edges.json"
            edges.write_text(json.dumps(traced["profile"]["edges"], indent=1))
            values = per_layer(rounds[name], traced)
            results[name]["per_layer"] = values
            print_per_layer(spec, name, values)
            print(f"  cross-layer edges written to "
                  f"{edges.relative_to(ROOT)}")
    return results


def driver_line(spec: dict, result: dict, trace: bool) -> str:
    """The one JSON object the PR driver reads from the last line."""
    rounds = result["rounds"]
    if trace:
        values, declared = result["per_layer"], spec["per_layer"]
    else:
        values, declared = end_to_end(rounds), spec["end_to_end"]
    failed = sum(r["failed"] for r in rounds)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run one workload and end with "
                        "the driver's JSON line (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-window seconds to measure per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0, help="add the profiled run and "
                        "the per-layer table")
    parser.add_argument("--quick", action="store_true",
                        help="one round at one tenth size")
    parser.add_argument("--out", help="write every round's readings here "
                        "as JSON, the input of compare.py")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--profile", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (SRC / "repro").is_dir():
        print(f"perf/run.py: no program to measure: {SRC / 'repro'} is "
              "missing", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(run_child(args.workload, args.seed, args.scale,
                                   args.profile)))
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in declared:
        parser.error(f"--workload must be one of {declared}")
    names = declared if args.workload is None else [args.workload]
    scale = QUICK_SCALE if args.quick else 1.0
    if args.quick or args.trace:
        seconds = 0.0  # one untraced round
    elif args.seconds is None:
        seconds = spec["run_seconds"]
    else:
        seconds = args.seconds
    results = measure(spec, names, args.seed, scale, seconds,
                      bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "scale": scale, "workloads": results},
            indent=1))
    if args.workload is not None:
        print(driver_line(spec, results[args.workload], bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
