#!/usr/bin/env python
"""One workload's timed window, split by where its work or memory goes::

    python tools/census.py --workload W --by events|frames|retained [--quick]

Each view runs the window of one ``perf/workloads.py`` workload (imported
read-only) inside its own instrument, prints a table, and exits 1 unless
the rows add up to a count the workload takes itself (see each view).
"""

import argparse
import json
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from functools import partial, reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: sites cheaper than this many events per operation share one closing row
FOLD_BELOW = 0.01

#: ``--wrap`` name -> (row label, the function's path in ``repro.net.network``)
TARGETS = {"send": ("Network.send", "Network.send"),
           "size": ("  of which freeze_size", "freeze_size"),
           "arrive": ("_Delivery._arrive", "_Delivery._arrive")}


def run_window(workload: str, seed: int, scale: float, around):
    """Build one workload, run its timed window inside ``around(sim)`` and
    finish it; returns what ``around`` yielded and the ``Outcome``
    (``src/`` and ``perf/`` must be importable)."""
    import workloads
    from repro.sim import Simulator

    # the drivers keep their simulator to themselves: note it as it is built
    built, plain_init = [], Simulator.__init__

    def noting_init(sim, *args, **kwargs):
        plain_init(sim, *args, **kwargs)
        built.append(sim)

    with tempfile.TemporaryDirectory() as workdir:
        Simulator.__init__ = noting_init
        try:
            window, finish = workloads.WORKLOADS[workload](seed, scale,
                                                           workdir)
        finally:
            Simulator.__init__ = plain_init
        (sim,) = built
        with around(sim) as collected:
            for _slice in window():
                pass
        return collected, finish()


class SiteCounter:
    """A ``Simulator.profiler`` that runs the callbacks and counts the
    site; as an ``around``, it yields its ``Counter``."""

    def __init__(self, sim) -> None:
        from repro.sim import AnyOf, Process
        self._condition, self._process = AnyOf, Process
        self.sim, self.sites = sim, Counter()

    def __enter__(self) -> Counter:
        self.sim.profiler = self
        return self.sites

    def __exit__(self, *exc) -> None:
        self.sim.profiler = None

    def _waiter(self, cb) -> str:
        """Name what one event callback would wake."""
        target = getattr(cb, "__self__", None)
        if isinstance(target, self._process):
            return f"resume {target.generator.gi_code.co_qualname}"
        if isinstance(target, self._condition):
            state = "already fired" if target.triggered else "waiting"
            return f"{type(target).__name__} ({state})"
        fn = getattr(cb, "fn", None)  # pooled callbacks, call_later adapters
        return getattr(fn or cb, "__qualname__", type(cb).__name__)

    def dispatch(self, event, callbacks) -> None:
        waiting = " + ".join(map(self._waiter, callbacks)) or "nobody"
        self.sites[f"{type(event).__name__} -> {waiting}"] += 1
        for cb in callbacks:
            cb(event)


def events(args):
    """Kernel events per operation by the site that caused them: a
    :class:`SiteCounter` files each dispatch under ``<event type> -> <who
    was waiting>`` (the generator a ``Process._resume`` resumes, the
    function a pooled callback runs, the state of an ``AnyOf``, or
    "nobody").  The sites must sum to the workload's ``sim.events``."""
    sites, outcome = run_window(args.workload, args.seed, args.scale,
                                SiteCounter)
    ops, total = outcome.ops, sum(sites.values())
    rows = [f"{args.workload} seed {args.seed}: {ops} ops, {total} events, "
            f"{total / ops:.2f} events/op", f"{'events/op':>10}  site"]
    folded = 0
    for site, count in sorted(sites.items(), key=lambda kv: (-kv[1], kv[0])):
        if count / ops < FOLD_BELOW:
            folded += count
        else:
            rows.append(f"{count / ops:>10.2f}  {site}")
    if folded:
        rows.append(f"{folded / ops:>10.2f}  (sites under {FOLD_BELOW}/op)")
    boundary = outcome.counters["sim.events"]
    return rows, total == boundary or (
        f"counted {total} dispatches, the workload's sim.events boundary "
        f"says {boundary}")


@contextmanager
def timing(target: str, _sim):
    """Time one frame-path function over the window; yields ``{"calls",
    "seconds", "window_s"}``."""
    from repro.net import network
    *path, name = TARGETS[target][1].split(".")
    owner = reduce(getattr, path, network)
    plain, clock = getattr(owner, name), time.perf_counter
    reading, running = {"calls": 0, "seconds": 0.0}, False

    def timed(*args, **kwargs):
        nonlocal running
        reading["calls"] += 1
        if running:  # a zero-latency hop landing inside the previous one
            return plain(*args, **kwargs)
        running = True
        t0 = clock()
        try:
            return plain(*args, **kwargs)
        finally:
            reading["seconds"] += clock() - t0
            running = False

    setattr(owner, name, timed)
    try:
        t0 = clock()
        yield reading
        reading["window_s"] = clock() - t0
    finally:
        setattr(owner, name, plain)


def frames(args):
    """What the frame path costs the host, unprofiled: ``perf_counter``
    wrappers (``cProfile`` taxes call-heavy code) time ``Network.send``
    (sizing included), its ``freeze_size`` and ``_Delivery._arrive``
    (hand-off included), each in a child interpreter of its own (hidden
    ``--wrap``), so that a reading is inclusive time of one function.  The
    hop arrivals must equal the workload's ``net.frames``."""
    if args.wrap is not None:  # the child
        reading, outcome = run_window(args.workload, args.seed, args.scale,
                                      partial(timing, args.wrap))
        return [json.dumps(dict(reading, ops=outcome.ops,
                                net_frames=outcome.counters["net.frames"]))
                ], True
    rows = {}
    for target in TARGETS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--by",
             "frames", "--seed", str(args.seed), "--wrap", target]
            + ["--quick"] * args.quick, stdout=subprocess.PIPE, text=True)
        if child.returncode != 0:
            sys.exit(child.returncode)
        rows[target] = json.loads(child.stdout.splitlines()[-1])
    send, arrive = rows["send"], rows["arrive"]
    table = [f"{args.workload} seed {args.seed}: {arrive['ops']} ops, "
             f"{arrive['net_frames']} frame hops (net.frames), "
             f"{send['calls']} frames sent",
             f"{'function':<24}{'calls':>9}{'us/call':>9}{'window s':>10}"
             f"{'share':>8}"]
    for target, (label, _path) in TARGETS.items():
        row = rows[target]
        table.append(f"{label:<24}{row['calls']:>9}"
                     f"{row['seconds'] / max(row['calls'], 1) * 1e6:>9.2f}"
                     f"{row['window_s']:>10.3f}"
                     f"{row['seconds'] / row['window_s']:>8.1%}")
    # per frame sent: a frame that crosses several links arrives several times
    per_frame = (send["seconds"] + arrive["seconds"]) / max(send["calls"], 1)
    share = (send["seconds"] / send["window_s"]
             + arrive["seconds"] / arrive["window_s"])
    table.append(f"{'send + arrive, per frame':<24}{'':>9}"
                 f"{per_frame * 1e6:>9.2f}{'':>10}{share:>8.1%}")
    boundary = sorted({row["net_frames"] for row in rows.values()})
    return table, boundary == [arrive["calls"]] or (
        f"saw {arrive['calls']} hop arrivals, the workload's net.frames "
        f"boundary says {boundary}")


@contextmanager
def tracing(_sim):
    """Snapshot the window's two ends; yields ``[before, after]``, filled
    in place, so that nothing this view keeps is allocated in between."""
    untraced = (tracemalloc.Filter(False, tracemalloc.__file__),)
    ends = [None, None]
    tracemalloc.start(32)  # frames enough to leave numpy and the stdlib
    try:
        ends[0] = tracemalloc.take_snapshot().filter_traces(untraced)
        yield ends
        ends[1] = tracemalloc.take_snapshot().filter_traces(untraced)
    finally:
        tracemalloc.stop()


def retained(args):
    """Memory the window allocated and still holds at its end, by layer:
    each allocation is filed under the innermost frame of its traceback
    that lies in ``src/repro`` or ``perf/``, named by ``perf/layers.py``'s
    ``repo_layer_of`` (``steering`` + ``apps`` are ``app``, ``perf/`` +
    ``repro.bench`` are ``driver``), or ``ext`` with no such frame.  The
    layers must sum to the ``tracemalloc`` snapshot diff.

    It files memory blocks by where they were allocated, not objects by
    what they hold, so it misreads two kinds of state: a container grown
    by ``realloc`` (an ``array``, a list, a dict table) is filed at its
    whole new size, most of which predates the window, and a small dict's
    key table taken from the interpreter's free list is not counted.
    """
    from layers import repo_layer_of
    (before, after), outcome = run_window(args.workload, args.seed,
                                          args.scale, tracing)
    layer_of = repo_layer_of(str(ROOT / "src" / "repro"), str(ROOT / "perf"))
    by_layer = Counter()
    for stat in after.compare_to(before, "traceback"):
        # frames run oldest first: file under the innermost with a layer
        names = (layer_of(f.filename) for f in reversed(stat.traceback))
        by_layer[next(filter(None, names), "ext")] += stat.size_diff
    total = (sum(t.size for t in after.traces)
             - sum(t.size for t in before.traces))
    ops = outcome.ops
    rows = [f"{args.workload} seed {args.seed}: {ops} ops, "
            f"{total / 1024:.1f} KB retained, {total / 1024 / ops:.2f} KB/op",
            f"{'KB/op':>10}{'share':>8}  layer"]
    for layer, size in sorted(by_layer.items(),
                              key=lambda kv: (-kv[1], kv[0])):
        share = size / total if total else 0.0
        rows.append(f"{size / 1024 / ops:>10.2f}{share:>8.1%}  {layer}")
    kept = sum(by_layer.values())
    return rows, kept == total or (
        f"the layers add up to {kept} B, the snapshots differ by {total} B")


#: ``--by`` -> view: ``view(args)`` returns ``(rows, True or message)``
VIEWS = {"events": events, "frames": frames, "retained": retained}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("::")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--by", required=True, choices=list(VIEWS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one tenth size, as perf/run.py --quick")
    parser.add_argument("--wrap", choices=list(TARGETS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.scale = 0.1 if args.quick else 1.0
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)}")
    rows, verdict = VIEWS[args.by](args)
    print("\n".join(rows))
    if verdict is not True:
        print(f"census --by {args.by}: {verdict}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
