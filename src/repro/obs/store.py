"""SpanStore: bounded span retention, tree reconstruction, critical path.

The store is deliberately dumb on the write path (one append to a list)
so recording stays cheap inside dispatch loops; all analysis — the
by-trace index, tree assembly, per-plane latency reduction, critical-path
extraction — happens on demand at read time.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, NamedTuple, Optional

from repro.metrics.stats import SummaryStats, summarize
from repro.obs.span import Span

#: default retention; a retained request span reads ≈415 bytes under
#: tracemalloc (span, attrs dict and its values), so a full store is ≈20 MB
DEFAULT_MAX_SPANS = 50_000


class SpanNode:
    """One span plus its children, sorted by virtual start time."""

    __slots__ = ("span", "children")

    def __init__(self, span: Span) -> None:
        self.span = span
        self.children: List["SpanNode"] = []

    def walk(self):
        """Yield ``(depth, node)`` depth-first, children in start order."""
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SpanNode {self.span.op!r} +{len(self.children)}>"


class PathSegment(NamedTuple):
    """One stretch of the critical path, attributed to one span."""

    span: Span
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanStore:
    """Bounded storage of finished spans, indexed by trace."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        #: how many more spans the store takes (0: full, the rest refused)
        self.room = max_spans
        self._spans: List[Span] = []
        #: trace id -> its spans, over the first ``_indexed`` of ``_spans``
        self._index: Dict[int, List[Span]] = {}
        self._indexed = 0
        #: spans rejected because the store was full
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._spans)

    # -- write path --------------------------------------------------------
    def add(self, span: Span) -> bool:
        """Retain a finished span; False (and counted) once full."""
        if not self.room:
            self.dropped += 1
            return False
        self.room -= 1
        self._spans.append(span)
        return True

    # -- lookup ------------------------------------------------------------
    def _by_trace(self) -> Dict[int, List[Span]]:
        """The index, caught up with the spans added since the last read."""
        index, spans = self._index, self._spans
        for span in spans[self._indexed:]:
            index.setdefault(span.trace_id, []).append(span)
        self._indexed = len(spans)
        return index

    def spans(self, trace_id: Optional[int] = None) -> List[Span]:
        if trace_id is None:
            return list(self._spans)
        return list(self._by_trace().get(trace_id, ()))

    def trace_ids(self) -> List[int]:
        # not off the index: the end-of-run counters ask this of stores
        # nobody reads by trace, and would be all the index was built for
        return [trace_id for trace_id, _ in groupby(
            sorted([span.trace_id for span in self._spans]))]

    def trace_of_root(self, op: str) -> Optional[int]:
        """The first trace whose root span runs ``op`` (None if absent)."""
        return min((span.trace_id for span in self._spans
                    if span.parent_id is None and span.op == op),
                   default=None)

    # -- tree reconstruction -----------------------------------------------
    def tree(self, trace_id: int) -> List[SpanNode]:
        """Root :class:`SpanNode` list for one trace.

        A well-propagated trace has exactly one root; spans whose parent
        was dropped (store overflow) surface as extra roots rather than
        disappearing.
        """
        nodes = {span.span_id: SpanNode(span)
                 for span in self._by_trace().get(trace_id, ())}
        roots: List[SpanNode] = []
        for node in nodes.values():
            parent = nodes.get(node.span.parent_id)
            if parent is None:
                roots.append(node)
            else:
                parent.children.append(node)
        for node in nodes.values():
            node.children.sort(key=lambda n: (n.span.start, n.span.span_id))
        roots.sort(key=lambda n: (n.span.start, n.span.span_id))
        return roots

    def servers(self, trace_id: int) -> List[str]:
        """Distinct non-empty server names a trace touched."""
        return sorted({span.server
                       for span in self._by_trace().get(trace_id, ())
                       if span.server})

    # -- critical path -----------------------------------------------------
    def critical_path(self, trace_id: int) -> List[PathSegment]:
        """The chain of spans that bounds the trace's end-to-end latency.

        Walks backward from the root's finish: within each span, time
        covered by a child is attributed to (the critical path through)
        that child, picking the latest-finishing child first; gaps between
        children — queueing, marshalling, reply transit — stay attributed
        to the span itself.  Segments are returned in chronological order
        and sum to the root's duration.
        """
        roots = self.tree(trace_id)
        if not roots:
            return []
        root = roots[0]
        segments: List[PathSegment] = []
        self._walk_critical(root, root.span.end or root.span.start, segments)
        segments.reverse()
        return [seg for seg in segments if seg.duration > 0.0]

    def _walk_critical(self, node: SpanNode, bound_end: float,
                       segments: List[PathSegment]) -> None:
        # Appends segments in reverse-chronological order (caller reverses).
        span = node.span
        end = span.end if span.end is not None else span.start
        t = min(end, bound_end)
        for child in sorted(node.children,
                            key=lambda n: (n.span.end or n.span.start),
                            reverse=True):
            c = child.span
            c_end = c.end if c.end is not None else c.start
            if c.start >= t or c_end <= span.start:
                continue  # outside the remaining window (e.g. reply hops)
            c_end = min(c_end, t)
            if c_end < t:
                segments.append(PathSegment(span, c_end, t))
            self._walk_critical(child, c_end, segments)
            t = max(c.start, span.start)
            if t <= span.start:
                break
        if t > span.start:
            segments.append(PathSegment(span, span.start, t))

    # -- reduction ---------------------------------------------------------
    def latency_stats(self, plane: Optional[str] = None,
                      op: Optional[str] = None) -> SummaryStats:
        """Duration stats over finished spans, filtered by plane/op."""
        samples = [span.duration for span in self._spans
                   if span.end is not None
                   and (plane is None or span.plane == plane)
                   and (op is None or span.op == op)]
        return summarize(samples)

    def planes(self) -> List[str]:
        return sorted({span.plane for span in self._spans if span.plane})

    def snapshot(self) -> dict:
        """Plain-dict summary (durations in ms) for the metrics registry."""
        out = {
            "spans": len(self._spans),
            "traces": len(self.trace_ids()),
            "dropped": self.dropped,
        }
        by_plane = {}
        for plane in self.planes():
            stats = self.latency_stats(plane).scaled(1e3)
            by_plane[plane] = {
                "count": stats.count,
                "mean_ms": stats.mean,
                "p90_ms": stats.p90,
            }
        out["by_plane"] = by_plane
        return out
