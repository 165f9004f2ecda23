#!/usr/bin/env python
"""Memory a workload's timed window retains, split by layer.

``perf/``'s ``peak_rss_mb`` says how much memory a run peaked at; this
says *which layer* kept it.  ``tracemalloc`` traces the timed window of
one ``perf/workloads.py`` workload (imported read-only): what the window
allocated and still holds at its end is its retained growth.  Each
allocation is filed under the innermost frame of its traceback that lies
in ``src/repro`` or ``perf/``, named by ``perf/layers.py``'s
``repo_layer_of`` (``steering`` + ``apps`` are ``app``, ``perf/`` +
``repro.bench`` are ``driver``); an allocation with no such frame is
``ext``.  The rows must add up to the difference of the two snapshots'
totals, or the exit status is 1::

    python tools/retained_by_layer.py --workload client_polls --seed 0 [--quick]
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: frames kept per allocation: deep enough to leave numpy and the stdlib
#: for the repository frame that asked them
FRAMES = 32

#: tracemalloc's own bookkeeping is not the workload's
_UNTRACED = (tracemalloc.Filter(False, tracemalloc.__file__),)


def _snapshot() -> tracemalloc.Snapshot:
    return tracemalloc.take_snapshot().filter_traces(_UNTRACED)


def measure(workload: str, seed: int, scale: float):
    """Trace one workload's timed window (``src/`` and ``perf/`` must be
    importable).

    Returns ``(by_layer, ops, total)``: retained bytes per layer, the
    window's operations, and the snapshot diff's total in bytes.
    """
    import workloads
    from layers import repo_layer_of

    layer_of = repo_layer_of(str(ROOT / "src" / "repro"), str(ROOT / "perf"))
    with tempfile.TemporaryDirectory() as workdir:
        window, finish = workloads.WORKLOADS[workload](seed, scale, workdir)
        tracemalloc.start(FRAMES)
        try:
            before = _snapshot()
            for _slice in window():
                pass
            after = _snapshot()
        finally:
            tracemalloc.stop()
        outcome = finish()
    by_layer: Counter = Counter()
    for stat in after.compare_to(before, "traceback"):
        # frames run oldest first: the innermost repository frame is the
        # last one with a layer
        layers = [layer_of(frame.filename) for frame in stat.traceback]
        owner = next((name for name in reversed(layers) if name), "ext")
        by_layer[owner] += stat.size_diff
    total = (sum(t.size for t in after.traces)
             - sum(t.size for t in before.traces))
    return by_layer, outcome.ops, total


def format_table(workload: str, seed: int, by_layer: Counter, ops: int,
                 total: int) -> str:
    lines = [f"{workload} seed {seed}: {ops} ops, {total / 1024:.1f} KB "
             f"retained, {total / 1024 / ops:.2f} KB/op",
             f"{'KB/op':>10}{'share':>8}  layer"]
    for layer, size in sorted(by_layer.items(), key=lambda kv: (-kv[1],
                                                                kv[0])):
        share = size / total if total else 0.0
        lines.append(f"{size / 1024 / ops:>10.2f}{share:>8.1%}  {layer}")
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
    by_layer, ops, total = measure(args.workload, args.seed,
                                   0.1 if args.quick else 1.0)
    print(format_table(args.workload, args.seed, by_layer, ops, total))
    if sum(by_layer.values()) != total:
        print(f"retained_by_layer: the layers add up to "
              f"{sum(by_layer.values())} B, the snapshots differ by "
              f"{total} B", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
