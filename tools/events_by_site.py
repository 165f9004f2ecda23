#!/usr/bin/env python
"""Kernel events per operation, split by the site that caused them.

``perf/``'s per-layer table says how many events one operation costs
(``sim.events_per_op``); this says *which*.  A counting object sits in the
kernel's existing ``Simulator.profiler`` slot for the timed window of one
``perf/workloads.py`` workload (imported read-only) and files every
dispatch under ``<event type> -> <who was waiting>``: the generator a
``Process._resume`` would resume, the function a pooled callback runs, the
state of an ``AnyOf`` (already fired or not), or "nobody" for an event
dispatched with an empty callback list.  The sites must add up to the
workload's own ``sim.events`` boundary count, or the exit status is 1::

    python tools/events_by_site.py --workload client_polls --seed 0 [--quick]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: sites cheaper than this many events per operation share one closing row
FOLD_BELOW = 0.01


class SiteCounter:
    """A ``Simulator.profiler``: runs the callbacks, counts the site."""

    def __init__(self) -> None:
        from repro.sim import AnyOf, Process

        self._condition, self._process = AnyOf, Process
        self.sites: Counter = Counter()

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


def measure(workload: str, seed: int, scale: float):
    """Run one workload with a :class:`SiteCounter` over its timed window
    (``src/`` and ``perf/`` must be importable).

    Returns ``(sites, ops, boundary_events)``.
    """
    import workloads
    from repro.sim import Simulator

    # the drivers keep their simulator to themselves: note it as it is built
    built = []
    plain_init = Simulator.__init__

    def noting_init(sim, *args, **kwargs):
        plain_init(sim, *args, **kwargs)
        built.append(sim)

    Simulator.__init__ = noting_init
    try:
        with tempfile.TemporaryDirectory() as workdir:
            window, finish = workloads.WORKLOADS[workload](seed, scale,
                                                           workdir)
            (sim,) = built
            counter = SiteCounter()
            sim.profiler = counter
            for _slice in window():
                pass
            sim.profiler = None
            outcome = finish()
    finally:
        Simulator.__init__ = plain_init
    return counter.sites, outcome.ops, outcome.counters["sim.events"]


def format_table(workload: str, seed: int, sites: Counter, ops: int) -> str:
    total = sum(sites.values())
    lines = [f"{workload} seed {seed}: {ops} ops, {total} events, "
             f"{total / ops:.2f} events/op",
             f"{'events/op':>10}  site"]
    folded = 0
    for site, count in sorted(sites.items(), key=lambda kv: (-kv[1], kv[0])):
        if count / ops < FOLD_BELOW:
            folded += count
        else:
            lines.append(f"{count / ops:>10.2f}  {site}")
    if folded:
        lines.append(f"{folded / ops:>10.2f}  (sites under {FOLD_BELOW}/op)")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one tenth size, as perf/run.py --quick")
    args = parser.parse_args()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perf")]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)}")
    sites, ops, boundary = measure(args.workload, args.seed,
                                   0.1 if args.quick else 1.0)
    print(format_table(args.workload, args.seed, sites, ops))
    if sum(sites.values()) != boundary:
        print(f"events_by_site: counted {sum(sites.values())} dispatches, "
              f"the workload's sim.events boundary says {boundary}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
