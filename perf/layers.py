"""Fold a cProfile table by the package that owns each function.

A *layer* is one of this repository's packages (``obs`` split by module,
``steering`` + ``apps`` joined as the modelled application, ``perf/`` +
``repro.bench`` joined as the workload driver).  Functions outside
``src/repro`` — builtins, ``json``, numpy — own no layer: their self time
and calls are charged to the layer that called them, following caller
edges through chains of outside functions in proportion to call counts.
``ext`` keeps only what has no recorded caller.  Without this a
snapshot-heavy run reads mostly "stdlib" when it is really ``storage``
encoding snapshots.

The input is the ``stats`` mapping of :class:`pstats.Stats`:
``func -> (cc, nc, tt, ct, callers)`` with ``func = (file, line, name)``
and ``callers = {func: (cc, nc, tt, ct)}``, where an edge's ``tt`` is the
callee's self time while called from that caller.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import PurePath
from typing import Callable, Dict, Optional, Tuple

LAYERS = ("sim", "wire", "net", "orb", "web", "pipeline", "core",
          "federation", "directory", "storage", "obs.tracer",
          "obs.timeseries", "obs.accounting", "obs.rest", "health",
          "metrics", "app", "client", "driver", "ext")

_OBS_MODULES = {"tracer": "obs.tracer", "span": "obs.tracer",
                "store": "obs.tracer", "interceptor": "obs.tracer",
                "timeseries": "obs.timeseries",
                "accounting": "obs.accounting"}
_JOINED = {"steering": "app", "apps": "app", "bench": "driver"}


def repo_layer_of(src_repro: str, perf_dir: str
                  ) -> Callable[[str], Optional[str]]:
    """The owner function for this checkout: file name → layer, or None
    for a function outside ``src/repro`` and ``perf/``."""
    src, perf = PurePath(src_repro), PurePath(perf_dir)

    def layer_of(filename: str) -> Optional[str]:
        path = PurePath(filename)
        if perf in path.parents:
            return "driver"
        if src not in path.parents:
            return None
        parts = path.relative_to(src).parts
        package = parts[0]
        if package == "obs" and len(parts) > 1:
            return _OBS_MODULES.get(PurePath(parts[1]).stem, "obs.rest")
        package = _JOINED.get(package, package)
        return package if package in LAYERS else "ext"

    return layer_of


def fold(stats: dict, layer_of: Callable[[str], Optional[str]]) -> dict:
    """Per-layer self time and calls, and every cross-layer edge.

    Returns ``{"layers": {layer: {"calls", "self_s"}}, "edges":
    [{"caller", "callee", "calls", "cum_s"}]}``; the layers' ``self_s``
    sum to the table's total self time.
    """
    owner = {func: layer_of(func[0]) for func in stats}
    memo: Dict[tuple, Dict[str, float]] = {}

    def blame(func, seen=frozenset()) -> Dict[str, float]:
        """Layer → share (summing to 1) answerable for calls made by
        ``func``: itself if it owns a layer, else its callers' layers."""
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        weights: Dict[str, float] = defaultdict(float)
        callers = stats[func][4] if func in stats else {}
        for caller, (_cc, nc, _tt, _ct) in callers.items():
            if caller == func or caller in seen:
                continue  # recursion among outside functions adds nothing
            for name, share in blame(caller, seen | {func}).items():
                weights[name] += share * nc
        total = sum(weights.values())
        shares = ({name: w / total for name, w in weights.items()}
                  if total else {"ext": 1.0})
        if not seen:
            memo[func] = shares
        return shares

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, float] = defaultdict(float)
    edges: Dict[Tuple[str, str], list] = defaultdict(lambda: [0.0, 0.0])
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = owner[func]
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            for caller, (_ecc, e_nc, _ett, e_ct) in callers.items():
                for name, share in blame(caller).items():
                    if name != layer:
                        edge = edges[(name, layer)]
                        edge[0] += share * e_nc
                        edge[1] += share * e_ct
            continue
        charged_s = charged_calls = 0.0
        for caller, (_ecc, e_nc, e_tt, _ect) in callers.items():
            for name, share in blame(caller).items():
                self_s[name] += share * e_tt
                calls[name] += share * e_nc
            charged_s += e_tt
            charged_calls += e_nc
        self_s["ext"] += tt - charged_s
        calls["ext"] += nc - charged_calls
    return {
        "layers": {name: {"calls": calls[name], "self_s": self_s[name]}
                   for name in LAYERS},
        "edges": [{"caller": a, "callee": b, "calls": n, "cum_s": s}
                  for (a, b), (n, s) in sorted(edges.items())],
    }
