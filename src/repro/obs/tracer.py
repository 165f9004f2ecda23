"""The Tracer: the one write API for causal tracing over simulated time.

Components never construct spans themselves (``Span`` is not in
``repro.obs.__all__``) — they ask the tracer to open
(:meth:`Tracer.enter`, or the :meth:`Tracer.span` context manager),
finish or record them, and the tracer handles sampling, id minting, the
per-process "current span" used for in-process propagation, and
retention in the shared :class:`~repro.obs.store.SpanStore`.

The current span rides on its *carrier*, ``sim.active_process or sim``
(the ``scope_span`` slot): ``enter`` keeps the slot's previous value in
the token it returns, ``finish(span, token=token)`` puts it back
(DESIGN §4c).

Tracing is **zero-event**: every method is a plain call off the clock
(``sim.now``) — nothing here schedules simulator events, takes virtual
time, or changes a wire size, so the golden experiment tables are
bit-for-bit identical with tracing on or off.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Optional

from repro.obs.span import Span, TraceContext
from repro.obs.store import DEFAULT_MAX_SPANS, SpanStore

SAMPLE_ALWAYS = "always"
SAMPLE_OFF = "off"


class Standalone:
    """Read in a simulator's place by a tracer or ledger built without one
    (unit tests): its three attributes, answered by the callables given,
    and the scope slots — so ``scope()`` may return one for a process."""

    scope_span = scope_cost_key = None

    def __init__(self, clock=None, scope=None, events_fn=None) -> None:
        self._clock = clock or (lambda: 0.0)
        self._scope = scope or (lambda: None)
        self._events = events_fn or (lambda: 0)

    now = property(lambda self: self._clock())
    active_process = property(lambda self: self._scope())
    events_dispatched = property(lambda self: self._events())


class Tracer:
    """Mints, scopes, and records spans against one shared store.

    ``sampling`` is ``"always"`` (every span kept) or ``"off"`` (none:
    every method is a no-op and :attr:`enabled` is false).

    The "current span" is tracked per simulation process (it rides on
    ``sim.active_process``), so interleaved processes on one simulator
    cannot leak context into each other.  Pass explicit ``clock`` /
    ``scope`` callables to use the tracer without a simulator (tests);
    ``scope()`` returns a carrier (e.g. a :class:`Standalone`) or None.
    """

    def __init__(self, sim=None, *,
                 clock: Optional[Callable[[], float]] = None,
                 scope: Optional[Callable[[], Any]] = None,
                 sampling: str = SAMPLE_ALWAYS,
                 max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self._sim = sim if sim is not None else Standalone(clock, scope)
        self.sampling = self._check_sampling(sampling)
        self.store = SpanStore(max_spans)
        self._trace_seq = itertools.count(1)
        self._span_seq = itertools.count(1)
        #: optional RequestCostLedger — every minted span is charged to the
        #: active request's cost vector ("spans" dimension, zero-event)
        self.ledger = None

    @staticmethod
    def _check_sampling(sampling: str) -> str:
        if sampling in (SAMPLE_ALWAYS, SAMPLE_OFF):
            return sampling
        raise ValueError(f"sampling must be {SAMPLE_ALWAYS!r} or "
                         f"{SAMPLE_OFF!r}, not {sampling!r}")

    @property
    def enabled(self) -> bool:
        return self.sampling != SAMPLE_OFF

    # -- span lifecycle ----------------------------------------------------
    def enter(self, op: str, *, plane: str = "", server: str = "",
              parent: Optional[Any] = None,
              attrs: Optional[dict] = None) -> Optional[tuple]:
        """Open a span and make it the calling process's current span;
        returns the token to hand to :meth:`finish` (``token[0]`` is the
        span), or None when sampled out.

        ``parent`` is a :class:`TraceContext`, a :class:`Span`, or None —
        None falls back to the calling process's current span, and a root
        is minted when there is none.
        """
        if self.sampling == SAMPLE_OFF:
            return None
        sim = self._sim
        carrier = sim.active_process or sim
        enclosing = carrier.scope_span
        if parent is None:
            if enclosing is not None:
                parent = enclosing.context()
        elif isinstance(parent, Span):
            parent = parent.context()
        if parent is None:
            trace_id, parent_id = next(self._trace_seq), None
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        if self.ledger is not None:
            self.ledger.charge_span(carrier)  # to the enclosing scope
        span = carrier.scope_span = Span(
            trace_id, next(self._span_seq), parent_id, op, plane, server,
            sim.now, attrs)
        return (span, carrier, enclosing)

    def finish(self, span: Optional[Span], *, error: Optional[Any] = None,
               token: Optional[tuple] = None) -> None:
        """Close a span at the current clock and copy it into a store row
        (the object is not kept); given the ``token`` :meth:`enter`
        returned, the carrier first gets back the span it had before.
        Scopes nest: closing any but the innermost is a programming
        error."""
        if span is None:
            return
        if token is not None:
            _span, carrier, enclosing = token
            assert carrier.scope_span is span, "span closed out of order"
            carrier.scope_span = enclosing
        span.end = end = self._sim.now
        if error is not None:
            span.status = "error"
            span.error = (error if isinstance(error, str)
                          else f"{type(error).__name__}: {error}")
        self.store.add(span.trace_id, span.span_id, span.parent_id,
                       span.start, end, span.op, span.plane, span.server,
                       span.status, span.error, span.attrs)

    def annotate(self, span: Optional[Span], **attrs: Any) -> None:
        """Attach attributes to an open span (no-op when sampled out)."""
        if span is not None:
            span.attrs.update(attrs)

    def record_span(self, op: str, start: float, end: float, *,
                    parent: Optional[TraceContext], plane: str = "",
                    server: str = "", attrs: Optional[dict] = None) -> None:
        """Retain an already-completed span (e.g. a network hop observed
        at hand-off) as a store row; no :class:`Span` is built.  Requires
        a sampled parent context — hop spans never start traces of their
        own.  One a full store refuses is still numbered and charged."""
        if self.sampling == SAMPLE_OFF or parent is None:
            return
        span_id = next(self._span_seq)
        if self.ledger is not None:
            sim = self._sim
            self.ledger.charge_span(sim.active_process or sim)
        self.store.add(parent.trace_id, span_id, parent.span_id, start, end,
                       op, plane, server, "ok", "", attrs or {})

    # -- in-process context propagation -------------------------------------
    def current_span(self) -> Optional[Span]:
        sim = self._sim
        return (sim.active_process or sim).scope_span

    def active_span_of(self, carrier: Any) -> Optional[Span]:
        """The active span of an arbitrary carrier (another process; None
        for "no process") — the dispatch profiler's tag lookup, read-only."""
        return getattr(self._sim if carrier is None else carrier,
                       "scope_span", None)

    def current_context(self) -> Optional[TraceContext]:
        """The propagatable context of the calling process's current span
        (what frames and GIOP service-context slots carry)."""
        sim = self._sim
        span = (sim.active_process or sim).scope_span
        return span.context() if span is not None else None

    @staticmethod
    def context_of(span: Optional[Span]) -> Optional[TraceContext]:
        """Inject helper: the compact context of an (optional) span."""
        return span.context() if span is not None else None

    @contextmanager
    def span(self, op: str, *, plane: str = "", server: str = "",
             parent: Optional[Any] = None, attrs: Optional[dict] = None):
        """Context manager: :meth:`enter`, then :meth:`finish`.  Safe
        around ``yield from`` bodies inside simulation processes — the
        scope rides on the process itself, so the context survives
        suspension and errors propagate into the span's status."""
        token = self.enter(op, plane=plane, server=server, parent=parent,
                           attrs=attrs)
        span = token[0] if token is not None else None
        try:
            yield span
        except BaseException as exc:
            self.finish(span, error=exc, token=token)
            raise
        else:
            self.finish(span, token=token)

    # -- reduction ---------------------------------------------------------
    def snapshot(self) -> dict:
        out = self.store.snapshot()
        out["sampling"] = self.sampling
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Tracer sampling={self.sampling!r} "
                f"spans={len(self.store)}>")
