"""Span and trace-context records (internal to :mod:`repro.obs`).

A :class:`Span` is one timed step of a causal trace: which layer did what,
on which server, over which stretch of *virtual* time.  Spans are plain
bookkeeping objects — they are never scheduled as simulator events and are
never encoded onto the wire, so recording them cannot perturb a
simulation's schedule (the golden-table invariant).

Only :mod:`repro.obs` constructs these classes; every other module goes
through the :class:`~repro.obs.tracer.Tracer` API (they are not in
``repro.obs.__all__``, which ``tools/check_pipeline_boundary.py`` reads).
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class TraceContext:
    """The compact, propagatable identity of a span: ``(trace_id, span_id)``.

    This is what crosses process and server boundaries — carried by
    reference in frame metadata and GIOP service-context slots, never
    serialized, so wire sizes (and therefore virtual-time schedules) are
    identical with tracing on or off.  A span hands the same instance to
    every frame and request it parents, so it is never mutated.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: int, span_id: int) -> None:
        self.trace_id = trace_id
        self.span_id = span_id

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TraceContext)
                and other.trace_id == self.trace_id
                and other.span_id == self.span_id)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TraceContext {self.trace_id}:{self.span_id}>"


class Span:
    """One timed, attributed step of a trace tree."""

    __slots__ = ("trace_id", "span_id", "parent_id", "op", "plane",
                 "server", "start", "end", "status", "error", "attrs",
                 "_context")

    # positional: a class call passes keywords as a dict, and every
    # request builds one span
    def __init__(self, trace_id: int, span_id: int,
                 parent_id: Optional[int], op: str, plane: str = "",
                 server: str = "", start: float = 0.0,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.op = op
        self.plane = plane
        self.server = server
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.error = ""
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}
        self._context: Optional[TraceContext] = None

    @property
    def duration(self) -> float:
        """Virtual seconds covered (0.0 while unfinished)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def context(self) -> TraceContext:
        """The span's propagatable identity: one shared instance, built
        on first use.  The store keeps a finished span as a row, so no
        retained span keeps a context alive (frames and requests that
        carry it hold their own reference)."""
        ctx = self._context
        if ctx is None:
            ctx = self._context = TraceContext(self.trace_id, self.span_id)
        return ctx

    def to_dict(self) -> dict:
        """JSON-serializable record (the JSONL exporter's row shape)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "op": self.op,
            "plane": self.plane,
            "server": self.server,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "error": self.error,
            "attrs": self.attrs,
        }

    def __eq__(self, other: object) -> bool:
        """Value equality: a store read builds a fresh span equal to the
        one that was finished, not the same object."""
        if not isinstance(other, Span):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    __hash__ = None  # mutable while open

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Span {self.trace_id}:{self.span_id} {self.op!r} "
                f"{self.plane}@{self.server} [{self.status}]>")
