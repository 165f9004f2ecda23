"""Cost-attribution plane: who is spending the fleet's resources, on what.

The middleware promises "global access" for large user populations; this
module answers the operator's first capacity question — *which principal*
is consuming CPU, wire bytes, and WAL bandwidth, and *which operation* is
burning it.  Two cooperating pieces:

- :class:`RequestCostLedger` — the write-side.  The chain's
  :class:`~repro.obs.interceptor.RecordingInterceptor` brackets every
  request on all three planes with ``open_request`` / ``close_request``,
  which attribute a per-request **cost vector** (requests, sim
  events dispatched, modeled CPU µs, wire bytes split LAN/WAN, WAL
  appends, spans minted, dropped frames/bytes) to the
  rollup key ``(principal, app, plane, operation)``.  Costs observed away
  from the dispatch path — per-hop wire bytes, WAL appends, span minting
  — join the same vector either through the request's propagated trace
  context (``Frame.trace_ctx``) or through the attribution scope the
  interceptor opens on the handling process, the slot beside the
  tracer's and the same discipline.  "Who is the noisy neighbor" is read
  from the same entries: :meth:`RequestCostLedger.top` ranks their exact
  per-principal sums, so every surface reports what the ledger stored.
- :class:`DispatchProfiler` — a continuous sampling profiler for the real
  time axis.  It rides the kernel dispatch loop: on a wall-clock
  interval it times exactly one callback dispatch and folds the sample
  under the active span's ``(plane, operation)`` (falling back to the
  callback's own name), exporting collapsed-stack (flamegraph) and
  Chrome trace-event formats.

Everything here is **zero-event**: attribution is plain bookkeeping off
the clock — no simulator events, no virtual CPU, no wire bytes — so the
golden experiment tables are bit-for-bit identical with accounting on or
off.  Every vector field is an integer count of modelled work (host time
is the profiler's, never a dimension), which is what makes the
partition invariant testable bit-for-bit: the per-principal vectors sum
*exactly* to the ledger's running totals.

Boundary: the rest of the tree names only :class:`RequestCostLedger`,
:class:`DispatchProfiler`, and :data:`COST_DIMENSIONS` (through the
:mod:`repro.obs` facade); the vector internals stay in this module,
outside its ``__all__``.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.tracer import Standalone
from repro.pipeline.core import RequestContext

__all__ = [
    "COST_DIMENSIONS",
    "DispatchProfiler",
    "RequestCostLedger",
    "format_cost_report",
]

#: the core per-request cost dimensions (every E14 heavy-hitter assertion
#: quantifies over these)
COST_DIMENSIONS = ("requests", "events", "cpu_us", "lan_bytes", "wan_bytes",
                   "wal_appends", "spans")
#: bookkeeping dimensions carried in the same vector but asserted
#: separately (errors only on failures; drops only for shed load)
EXTRA_DIMENSIONS = ("errors", "dropped_frames", "dropped_bytes")
ALL_DIMENSIONS = COST_DIMENSIONS + EXTRA_DIMENSIONS
#: how many principals a heavy-hitter listing names unless the reader asks
DEFAULT_TOP = 8

#: default capacity of the trace-id -> rollup-key binding table
MAX_TRACE_BINDINGS = 4096


class CostVector:
    """One exact, integer-valued resource vector (internal to this module).

    Addition is component-wise and exact, so any partition of the
    attribution stream sums back to the same totals bit-for-bit.  A
    ledger entry also holds its rollup key: the one tuple of that key the
    ledger keeps past a request (its trace bindings).
    """

    __slots__ = ALL_DIMENSIONS + ("key",)

    def __init__(self, key: Optional[Tuple[str, str, str, str]] = None
                 ) -> None:
        for dim in ALL_DIMENSIONS:
            setattr(self, dim, 0)
        self.key = key

    def add(self, other: "CostVector") -> "CostVector":
        for dim in ALL_DIMENSIONS:
            setattr(self, dim, getattr(self, dim) + getattr(other, dim))
        return self

    def as_dict(self) -> Dict[str, int]:
        return {dim: getattr(self, dim) for dim in ALL_DIMENSIONS}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        nonzero = {d: v for d, v in self.as_dict().items() if v}
        return f"<CostVector {nonzero}>"


#: where a span minted under no request scope is charged
_NO_SCOPE_SPAN = ("-", "-", "obs", "span")


def _ranked(by_principal: Dict[str, CostVector], dim: str,
            n: Optional[int]) -> List[Tuple[str, int, int]]:
    """The ``n`` (default :data:`DEFAULT_TOP`) largest non-zero counts of
    ``dim`` in a per-principal partition, ties by name."""
    ranked = sorted(((principal, getattr(vec, dim))
                     for principal, vec in by_principal.items()
                     if getattr(vec, dim)),
                    key=lambda pc: (-pc[1], pc[0]))
    return [(principal, count, 0) for principal, count
            in ranked[:DEFAULT_TOP if n is None else n]]


class RequestCostLedger:
    """Per-request resource accounting rolled up by (principal, app,
    plane, operation).

    One ledger serves a whole deployment (every server's interceptor and
    the shared network feed the same instance), exactly like the shared
    :class:`~repro.net.Network` — the rollup key carries no server
    dimension, so a fleet-wide "who is spending what" view needs no merge
    step.  Standalone servers create their own.

    The ledger is one store: a charge updates the key's entry and the
    running total, nothing else; rankings are computed from the entries
    when read.  Cost history over time is not kept here; the servers'
    time-series registries carry the per-plane request and WAL counters.

    Attribution paths, in order of preference:

    1. **Interceptor scope** — ``open_request``/``close_request`` bracket
       each dispatched request: until it closes its rollup key rides on
       the handling process (``scope_cost_key``; the simulator's when no
       process runs), so charges made *during* handling (WAL appends,
       span minting) attribute to the request that caused them.
       ``close_request`` books the request itself — requests, errors,
       events, CPU — with one entry update.
    2. **Trace binding** — ``open_request`` binds the request's trace id
       to its key (the last ``max_trace_bindings`` ids bound); frames
       stamped with that context (``Frame.trace_ctx``) attribute their
       per-hop wire bytes to the originating request even after it
       finished (reply frames).
    3. **Fallback** — unbound frames attribute to
       ``(src_host, "-", "net", channel)`` and scopeless charges to
       ``("-", "-", plane, operation)``; every cost lands in exactly one
       entry, so totals stay exact partitions regardless.
    """

    def __init__(self, sim=None, *,
                 scope: Optional[Callable[[], Any]] = None,
                 events_fn: Optional[Callable[[], int]] = None,
                 max_trace_bindings: int = MAX_TRACE_BINDINGS) -> None:
        # without a simulator (tests), ``scope()`` returns a carrier or None
        self._sim = (sim if sim is not None
                     else Standalone(scope=scope, events_fn=events_fn))
        self.entries: Dict[Tuple[str, str, str, str], CostVector] = {}
        self.total = CostVector()
        #: trace id -> rollup key, and the ids in the order first bound
        self._bindings: Dict[Any, Tuple[str, str, str, str]] = {}
        self._bound: deque = deque()
        self.max_trace_bindings = max_trace_bindings

    # -- the one write path -------------------------------------------------
    def _charge_key(self, key: Tuple[str, str, str, str], dim: str,
                    n: int) -> None:
        if not n:
            return
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = CostVector(key)
        setattr(entry, dim, getattr(entry, dim) + n)
        total = self.total
        setattr(total, dim, getattr(total, dim) + n)

    def charge(self, dim: str, n: int = 1, *, plane: str = "obs",
               operation: str = "charge") -> None:
        """Attribute ``n`` units of ``dim`` to the active request scope
        (or the fallback key when no request is being handled)."""
        sim = self._sim
        self._charge_key((sim.active_process or sim).scope_cost_key
                         or ("-", "-", plane, operation), dim, n)

    def charge_span(self, carrier: Any) -> None:
        """``charge("spans", operation="span")`` for the tracer, which
        holds the carrier already: one entry lookup."""
        key = carrier.scope_cost_key or _NO_SCOPE_SPAN
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = CostVector(key)
        entry.spans += 1
        self.total.spans += 1

    # -- request lifecycle (interceptor) ------------------------------------
    @staticmethod
    def _app_of(ctx: RequestContext) -> str:
        request = ctx.request
        app = getattr(request, "app_id", None)
        if app is None:
            params = getattr(request, "params", None)
            if isinstance(params, dict):
                app = params.get("app_id")
        return app if isinstance(app, str) and app else "-"

    def open_request(self, ctx: RequestContext) -> None:
        """Open the request's scope under a key tuple of its own, so
        nested requests of one key are told apart by identity."""
        key = (ctx.principal or "-", self._app_of(ctx), ctx.plane,
               ctx.operation or "-")
        sim = self._sim
        carrier = sim.active_process or sim
        ctx.cost_open = (key, carrier, carrier.scope_cost_key,
                         sim.events_dispatched)
        carrier.scope_cost_key = key
        if ctx.trace_ctx is not None:
            self.bind_trace(ctx.trace_ctx.trace_id, key)

    def close_request(self, ctx: RequestContext) -> None:
        """Book the request ``open_request`` opened: the carrier's scope
        goes back to what it was (scopes nest: closing any but the
        innermost is a programming error), then one entry lookup, entry
        and total.  A trace binding still holding the request's own key
        tuple takes the entry's instead: bindings outlive requests, and
        so keep one tuple per rollup key."""
        rec = ctx.cost_open
        if rec is None:
            return
        key, carrier, enclosing, events0 = rec
        assert carrier.scope_cost_key is key, "request closed out of order"
        carrier.scope_cost_key = enclosing
        ctx.cost_open = None
        errors = 0 if ctx.error_type is None else 1
        # +1: the kernel counts the event that *delivered* this request
        # before its callbacks (and hence this window) run — attribute it
        # here, so a synchronous handler still costs the one dispatch it
        # consumed and the events dimension partitions exactly.
        events = self._sim.events_dispatched - events0 + 1
        cpu_us = int(round(ctx.cpu_cost * 1e6))
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = CostVector(key)
        for vec in (entry, self.total):
            vec.requests += 1
            vec.errors += errors
            vec.events += events
            vec.cpu_us += cpu_us
        trace_ctx = ctx.trace_ctx
        if trace_ctx is not None:
            bindings = self._bindings
            if bindings.get(trace_ctx.trace_id) is key:
                bindings[trace_ctx.trace_id] = entry.key

    @contextmanager
    def scoped(self, principal: str, *, plane: str, operation: str):
        """Attribute charges in this block to a background activity (a
        federation poller, a health gossip round) instead of a request."""
        key = (principal, "-", plane, operation)
        sim = self._sim
        carrier = sim.active_process or sim
        enclosing, carrier.scope_cost_key = carrier.scope_cost_key, key
        try:
            yield key
        finally:
            assert carrier.scope_cost_key is key, "scope left out of order"
            carrier.scope_cost_key = enclosing

    # -- trace-context joins (network plane) --------------------------------
    def bind_trace(self, trace_id: Any,
                   key: Tuple[str, str, str, str]) -> None:
        """Frames of ``trace_id`` now attribute to ``key``.  Eviction is
        by first binding: an id bound again keeps its place in line."""
        bindings = self._bindings
        held = len(bindings)
        bindings[trace_id] = key
        if len(bindings) > held:
            bound = self._bound
            bound.append(trace_id)
            if len(bound) > self.max_trace_bindings:
                del bindings[bound.popleft()]

    def _frame_key(self, frame: Any) -> Tuple[str, str, str, str]:
        trace_ctx = frame.trace_ctx
        if trace_ctx is not None:
            key = self._bindings.get(trace_ctx.trace_id)
            if key is not None:
                return key
        return (frame.src_host, "-", "net", frame.channel)

    def account_frame_hop(self, frame: Any, wan: bool) -> None:
        """One traversed link: ``frame.size`` wire bytes, LAN or WAN —
        one binding lookup, one entry lookup, then entry and total, the
        order every charge is booked in."""
        size = frame.size
        if not size:
            return
        key = self._frame_key(frame)
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = CostVector(key)
        if wan:
            entry.wan_bytes += size
            self.total.wan_bytes += size
        else:
            entry.lan_bytes += size
            self.total.lan_bytes += size

    def account_dropped(self, frame: Any) -> None:
        """A frame shed at hand-off (unbound port): count it and its bytes
        so dropped load shows up in cost totals, not just diagnostics."""
        key = self._frame_key(frame)
        self._charge_key(key, "dropped_frames", 1)
        self._charge_key(key, "dropped_bytes", frame.size)

    # -- reduction ----------------------------------------------------------
    def partition_by(self, field: str = "principal") -> Dict[str, CostVector]:
        """Exact rollup of every entry onto one key field."""
        idx = ("principal", "app", "plane", "operation").index(field)
        out: Dict[str, CostVector] = {}
        for key, vec in self.entries.items():
            slot = out.get(key[idx])
            if slot is None:
                slot = out[key[idx]] = CostVector()
            slot.add(vec)
        return out

    def by_operation(self) -> Dict[str, Dict[str, int]]:
        """Per ``plane/operation`` vectors (the cost-regression gate's
        unit of comparison), as plain dicts."""
        out: Dict[str, CostVector] = {}
        for (_principal, _app, plane, operation), vec in self.entries.items():
            name = f"{plane}/{operation}"
            slot = out.get(name)
            if slot is None:
                slot = out[name] = CostVector()
            slot.add(vec)
        return {name: vec.as_dict() for name, vec in sorted(out.items())}

    def top(self, dim: str, n: Optional[int] = None) \
            -> List[Tuple[str, int, int]]:
        """Top principals for one dimension: ``[(principal, count, 0)]``,
        the exact ranking of the entries (count descending, ties by name;
        the third field is the error bound readers of the surfaces expect,
        and an exact count has none)."""
        return _ranked(self.partition_by("principal"), dim, n)

    def snapshot(self, *, top: Optional[int] = None) -> dict:
        """Plain-dict view: totals, per-key entries, and per-dimension
        heavy hitters (this is what ``/status/costs`` serves)."""
        by_principal = self.partition_by("principal")
        return {
            "dimensions": list(ALL_DIMENSIONS),
            "totals": self.total.as_dict(),
            "entries": [
                {"principal": key[0], "app": key[1], "plane": key[2],
                 "operation": key[3], **vec.as_dict()}
                for key, vec in sorted(self.entries.items())],
            "heavy_hitters": {
                dim: [list(hit) for hit in _ranked(by_principal, dim, top)]
                for dim in ALL_DIMENSIONS},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<RequestCostLedger entries={len(self.entries)} "
                f"requests={self.total.requests}>")


#: Chrome trace events a profiler keeps; later samples still fold into stacks
MAX_PROFILE_RECORDS = 20_000


class DispatchProfiler:
    """Continuous sampling profiler over the kernel dispatch loop.

    Installed on a :class:`~repro.sim.Simulator` (``profiler.install(sim)``
    before ``run()``), the kernel routes every event through
    :meth:`dispatch`.  Most events pass straight through (one counter
    decrement); every ``stride`` events the wall clock is consulted, and
    once per ``interval_us`` of real time exactly one callback dispatch
    is timed precisely with ``perf_counter_ns``.  The sample folds under
    a synthetic stack — the active span's ``(plane, operation)`` for the
    process being resumed when a tracer is attached, else the callback
    target's own name — weighted by its measured wall-ns.

    Exports: :meth:`collapsed` (flamegraph.pl / speedscope collapsed
    stacks, wall-µs weights) and :meth:`to_chrome` (Chrome trace-event
    JSON, one complete event per sample).
    """

    def __init__(self, *, interval_us: int = 200, stride: int = 64,
                 wall_clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.interval_ns = int(interval_us) * 1000
        self.stride = int(stride)
        #: attached before ``install``, names each sample by its active span
        self.tracer = None
        self._wall = wall_clock
        #: folded stack tuple -> [sample count, total wall-ns]
        self.samples: Dict[Tuple[str, ...], List[int]] = {}
        self.records: List[dict] = []
        self.events_seen = 0
        self.sample_count = 0
        self._countdown = self.stride
        self._next_ns = 0
        self._epoch_ns = self._wall()
        self.sim = None

    def install(self, sim) -> "DispatchProfiler":
        self.sim = sim
        sim.profiler = self
        return self

    def uninstall(self) -> None:
        if self.sim is not None and self.sim.profiler is self:
            self.sim.profiler = None
        self.sim = None

    # -- the kernel-facing hot path -----------------------------------------
    def dispatch(self, event: Any, callbacks: List[Callable]) -> None:
        """Run one event's callbacks, sampling on the wall-clock interval."""
        self.events_seen += 1
        self._countdown -= 1
        if self._countdown > 0:
            for cb in callbacks:
                cb(event)
            return
        self._countdown = self.stride
        t0 = self._wall()
        if t0 < self._next_ns:
            for cb in callbacks:
                cb(event)
            return
        self._next_ns = t0 + self.interval_ns
        stack = self._stack_of(callbacks)
        for cb in callbacks:
            cb(event)
        elapsed = self._wall() - t0
        self.sample_count += 1
        cell = self.samples.get(stack)
        if cell is None:
            self.samples[stack] = [1, elapsed]
        else:
            cell[0] += 1
            cell[1] += elapsed
        if len(self.records) < MAX_PROFILE_RECORDS:
            self.records.append({
                "name": stack[-1], "cat": stack[0], "ph": "X",
                "ts": (t0 - self._epoch_ns) / 1000.0,
                "dur": elapsed / 1000.0, "pid": 0, "tid": 0,
                "args": {"stack": ";".join(stack),
                         "sim_time": self.sim.now if self.sim else 0.0}})

    def _stack_of(self, callbacks: List[Callable]) -> Tuple[str, ...]:
        cb = callbacks[0] if callbacks else None
        target = getattr(cb, "__self__", cb)
        name = getattr(target, "name", None) \
            or getattr(getattr(target, "fn", None), "__qualname__", None) \
            or type(target).__name__
        if self.tracer is not None:
            span = self.tracer.active_span_of(target)
            if span is not None:
                return (span.plane or "kernel", span.op, str(name))
        return ("kernel", "dispatch", str(name))

    # -- reduction -----------------------------------------------------------
    def folded(self) -> Dict[str, Tuple[int, int]]:
        """``{"plane;operation;target": (samples, wall_ns)}``."""
        return {";".join(stack): (cell[0], cell[1])
                for stack, cell in sorted(self.samples.items())}

    def collapsed(self) -> str:
        """Collapsed-stack text (one ``stack weight`` line per fold;
        weights are sampled wall-µs, flamegraph.pl-compatible)."""
        lines = [f"{stack} {max(1, wall_ns // 1000)}"
                 for stack, (_count, wall_ns) in self.folded().items()]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome(self) -> dict:
        return {"traceEvents": list(self.records),
                "displayTimeUnit": "ms",
                "metadata": {"events_seen": self.events_seen,
                             "samples": self.sample_count}}

    def top_folds(self, n: int = 10) -> List[Tuple[str, int, int]]:
        """``[(stack, samples, wall_ns)]`` heaviest first."""
        ranked = sorted(self.folded().items(),
                        key=lambda kv: (-kv[1][1], kv[0]))
        return [(stack, count, wall_ns)
                for stack, (count, wall_ns) in ranked[:n]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<DispatchProfiler samples={self.sample_count} "
                f"events={self.events_seen}>")


def format_cost_report(ledger: RequestCostLedger, *, top: int = 5) -> str:
    """Human-readable cost report: totals, heavy hitters, per-operation."""
    lines = ["cost totals:"]
    totals = ledger.total.as_dict()
    lines.append("  " + "  ".join(f"{dim}={totals[dim]}"
                                  for dim in ALL_DIMENSIONS if totals[dim]))
    lines.append(f"heavy hitters (top {top} principals per dimension):")
    for dim in ALL_DIMENSIONS:
        ranked = ledger.top(dim, top)
        if not ranked or totals[dim] == 0:
            continue
        parts = [f"{principal}={count}" for principal, count, _err in ranked]
        lines.append(f"  {dim:>14}: " + "  ".join(parts))
    lines.append("per-operation (requests, cpu_us, events):")
    for name, vec in ledger.by_operation().items():
        lines.append(f"  {name:<28} requests={vec['requests']:<8} "
                     f"cpu_us={vec['cpu_us']:<10} events={vec['events']}")
    return "\n".join(lines)
