"""The Tracer: the one write API for causal tracing over simulated time.

Components never construct spans themselves (the obs boundary lint
enforces it) — they ask the tracer to start/finish/record them, and the
tracer handles sampling, id minting, the per-process "current span" used
for in-process propagation, and retention in the shared
:class:`~repro.obs.store.SpanStore`.

Tracing is **zero-event**: every method is a plain call off the clock
(``sim.now``) — nothing here schedules simulator events, takes virtual
time, or changes a wire size, so the golden experiment tables are
bit-for-bit identical with tracing on or off.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs.span import Span, TraceContext
from repro.obs.store import DEFAULT_MAX_SPANS, SpanStore

SAMPLE_ALWAYS = "always"
SAMPLE_OFF = "off"


class Tracer:
    """Mints, activates, and records spans against one shared store.

    ``sampling`` is the memory knob: ``"always"``, ``"off"``, or an int N
    for 1-in-N root sampling (children of a sampled root are always kept,
    so sampled traces stay complete trees).  Sampling decisions are
    counter-based, never random — a traced run is reproducible.

    The "current span" is tracked per simulation process (keyed by
    ``sim.active_process``), so interleaved processes on one simulator
    cannot leak context into each other.  Pass explicit ``clock`` /
    ``scope`` callables to use the tracer without a simulator (tests).
    """

    def __init__(self, sim=None, *,
                 clock: Optional[Callable[[], float]] = None,
                 scope: Optional[Callable[[], Any]] = None,
                 sampling: Union[str, int] = SAMPLE_ALWAYS,
                 max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if sim is not None:
            clock = clock or (lambda: sim.now)
            scope = scope or (lambda: sim.active_process)
        self._clock = clock or (lambda: 0.0)
        self._scope = scope or (lambda: None)
        self.sampling = self._check_sampling(sampling)
        self.store = SpanStore(max_spans)
        self._trace_seq = itertools.count(1)
        self._span_seq = itertools.count(1)
        self._roots_seen = 0
        #: per-process stacks of active spans (in-process propagation)
        self._active: Dict[Any, List[Span]] = {}
        #: optional RequestCostLedger — every minted span is charged to the
        #: active request's cost vector ("spans" dimension, zero-event)
        self.ledger = None

    @staticmethod
    def _check_sampling(sampling: Union[str, int]) -> Union[str, int]:
        if sampling in (SAMPLE_ALWAYS, SAMPLE_OFF):
            return sampling
        if isinstance(sampling, int) and sampling >= 1:
            return sampling
        raise ValueError(f"sampling must be {SAMPLE_ALWAYS!r}, "
                         f"{SAMPLE_OFF!r}, or a positive int, "
                         f"not {sampling!r}")

    @property
    def enabled(self) -> bool:
        return self.sampling != SAMPLE_OFF

    # -- span lifecycle ----------------------------------------------------
    def start_span(self, op: str, *, plane: str = "", server: str = "",
                   parent: Optional[Any] = None,
                   attrs: Optional[dict] = None) -> Optional[Span]:
        """Open a span; None when sampled out (all APIs accept None).

        ``parent`` is a :class:`TraceContext`, a :class:`Span`, or None —
        None falls back to the calling process's current span, and a root
        is minted when there is none (subject to the sampling knob).
        """
        if self.sampling == SAMPLE_OFF:
            return None
        if parent is None:
            parent = self.current_context()
        elif isinstance(parent, Span):
            parent = parent.context()
        if parent is None:
            self._roots_seen += 1
            if (self.sampling != SAMPLE_ALWAYS
                    and (self._roots_seen - 1) % self.sampling != 0):
                return None
            trace_id, parent_id = next(self._trace_seq), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        if self.ledger is not None:
            self.ledger.charge("spans", 1, plane="obs", operation="span")
        return Span(trace_id, next(self._span_seq), parent_id, op,
                    plane=plane, server=server, start=self._clock(),
                    attrs=attrs)

    def finish(self, span: Optional[Span], *,
               error: Optional[Any] = None) -> None:
        """Close a span at the current clock and retain it."""
        if span is None:
            return
        span.end = self._clock()
        span._context = None  # a stored span keeps no context alive
        if error is not None:
            span.status = "error"
            span.error = (error if isinstance(error, str)
                          else f"{type(error).__name__}: {error}")
        self.store.add(span)

    def annotate(self, span: Optional[Span], **attrs: Any) -> None:
        """Attach attributes to an open span (no-op when sampled out)."""
        if span is not None:
            span.attrs.update(attrs)

    def record_span(self, op: str, start: float, end: float, *,
                    parent: Optional[TraceContext], plane: str = "",
                    server: str = "", attrs: Optional[dict] = None,
                    status: str = "ok") -> Optional[Span]:
        """Retain an already-completed span (e.g. a network hop observed
        at hand-off).  Requires a sampled parent context — hop spans never
        start traces of their own."""
        if self.sampling == SAMPLE_OFF or parent is None:
            return None
        if self.ledger is not None:
            self.ledger.charge("spans", 1, plane="obs", operation="span")
        span = Span(parent.trace_id, next(self._span_seq), parent.span_id,
                    op, plane=plane, server=server, start=start, attrs=attrs)
        span.end = end
        span.status = status
        self.store.add(span)
        return span

    # -- in-process context propagation -------------------------------------
    def activate(self, span: Optional[Span]):
        """Make ``span`` the calling process's current span; returns a
        token for :meth:`deactivate` (always pair them, try/finally)."""
        if span is None:
            return None
        key = self._scope()
        self._active.setdefault(key, []).append(span)
        return (key, span)

    def deactivate(self, token) -> None:
        """Undo one :meth:`activate`; pops the process's stack entry."""
        if token is None:
            return
        key, span = token
        stack = self._active.get(key)
        if not stack:
            return
        if stack[-1] is span:
            stack.pop()
        else:  # out-of-order unwind (defensive; should not happen)
            try:
                stack.remove(span)
            except ValueError:
                pass
        if not stack:
            del self._active[key]

    def current_span(self) -> Optional[Span]:
        stack = self._active.get(self._scope())
        return stack[-1] if stack else None

    def active_span_of(self, scope_key: Any) -> Optional[Span]:
        """The active span of an arbitrary scope key (another process) —
        the dispatch profiler's tag lookup, read-only."""
        stack = self._active.get(scope_key)
        return stack[-1] if stack else None

    def current_context(self) -> Optional[TraceContext]:
        """The propagatable context of the calling process's current span
        (what frames and GIOP service-context slots carry)."""
        stack = self._active.get(self._scope())
        return stack[-1].context() if stack else None

    @staticmethod
    def context_of(span: Optional[Span]) -> Optional[TraceContext]:
        """Inject helper: the compact context of an (optional) span."""
        return span.context() if span is not None else None

    @contextmanager
    def span(self, op: str, *, plane: str = "", server: str = "",
             parent: Optional[Any] = None, attrs: Optional[dict] = None):
        """Context manager: start + activate, finish + deactivate.

        Safe around ``yield from`` bodies inside simulation processes —
        the scope key is the process itself, so the context survives
        suspension and errors propagate into the span's status.
        """
        span = self.start_span(op, plane=plane, server=server,
                               parent=parent, attrs=attrs)
        token = self.activate(span)
        try:
            yield span
        except BaseException as exc:
            self.finish(span, error=exc)
            raise
        else:
            self.finish(span)
        finally:
            self.deactivate(token)

    # -- reduction ---------------------------------------------------------
    def snapshot(self) -> dict:
        out = self.store.snapshot()
        out["sampling"] = self.sampling
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Tracer sampling={self.sampling!r} "
                f"spans={len(self.store)}>")
