"""SpanStore: bounded span retention, tree reconstruction, critical path.

A finished span is kept as one *row* of columns, not as an object: its
three ids in one ``array("q")``, its start and end in one ``array("d")``,
the strings a row shares with many others — op, plane, server, status,
error and the attr keys — as one interned *kind*, and its attr values in
one flat list.  Writing a row is a kind lookup and one append per
column, cheap inside dispatch loops.  Reads that hand out spans
(:meth:`SpanStore.spans`, :meth:`~SpanStore.tree`,
:meth:`~SpanStore.critical_path`) build :class:`Span` objects on demand;
the scans (trace ids, planes, latency stats, servers, error rows) read
the columns and build none.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.metrics.stats import SummaryStats, summarize
from repro.obs.span import Span

#: default retention; under tracemalloc a retained request span reads
#: ≈135 bytes as a row and a hop span ≈103, so a full store is ≈7 MB
DEFAULT_MAX_SPANS = 50_000

#: the parent-id column's "no parent" (span ids count from 1)
NO_PARENT = -1

#: a kind is ``(op, plane, server, status, error, *attr_keys)``
_OP, _PLANE, _SERVER, _STATUS, _ATTR_KEYS = 0, 1, 2, 3, 5


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
    """Bounded storage of finished spans, one row each, indexed by trace."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = max_spans
        #: how many more spans the store takes (0: full, the rest refused)
        self.room = max_spans
        #: per row: trace id, span id, parent id (NO_PARENT for a root)
        self._ids = array("q")
        #: per row: start, end (virtual seconds, read back as floats)
        self._times = array("d")
        #: per row: its kind's index in ``_kinds``
        self._kind_of = array("i")
        #: every row's attr values, one after another
        self._values: List[Any] = []
        #: the distinct kinds, and each one's index
        self._kinds: List[tuple] = []
        self._kind_index: Dict[tuple, int] = {}
        # read side, caught up on the first read after a write
        #: row -> where its attr values start in ``_values`` (one more
        #: entry than rows caught up: the last is where the next starts)
        self._offsets = array("q", [0])
        #: trace id -> its rows
        self._index: Dict[int, List[int]] = {}
        #: spans rejected because the store was full
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._kind_of)

    # -- write path --------------------------------------------------------
    def add(self, trace_id: int, span_id: int, parent_id: Optional[int],
            start: float, end: float, op: str, plane: str, server: str,
            status: str, error: str, attrs: Dict[str, Any]) -> bool:
        """Retain one finished span as a row; False (and counted) once
        full.  Nothing of ``attrs`` but its keys and values is kept."""
        if not self.room:
            self.dropped += 1
            return False
        self.room -= 1
        key = (op, plane, server, status, error, *attrs)
        kind = self._kind_index.get(key)
        if kind is None:
            kind = self._kind_index[key] = len(self._kinds)
            self._kinds.append(key)
        # fromlist: one call per column, where extend() would walk a
        # tuple through the generic iterator protocol
        self._ids.fromlist(
            [trace_id, span_id, NO_PARENT if parent_id is None else parent_id])
        self._times.fromlist([start, end])
        self._kind_of.append(kind)
        self._values.extend(attrs.values())
        return True

    # -- lookup ------------------------------------------------------------
    def _catch_up(self) -> None:
        """Extend the by-trace index and the attr offsets over the rows
        added since the last read."""
        index, ids, offsets = self._index, self._ids, self._offsets
        kinds, kind_of = self._kinds, self._kind_of
        at = offsets[-1]
        for row in range(len(offsets) - 1, len(kind_of)):
            index.setdefault(ids[3 * row], []).append(row)
            at += len(kinds[kind_of[row]]) - _ATTR_KEYS
            offsets.append(at)

    def _span(self, row: int) -> Span:
        """A caught-up row as a fresh :class:`Span`, equal to the one
        that was finished."""
        op, plane, server, status, error, *keys = self._kinds[
            self._kind_of[row]]
        trace_id, span_id, parent_id = self._ids[3 * row:3 * row + 3]
        start, end = self._times[2 * row:2 * row + 2]
        at, to = self._offsets[row:row + 2]
        span = Span(trace_id, span_id,
                    None if parent_id == NO_PARENT else parent_id, op,
                    plane, server, start,
                    dict(zip(keys, self._values[at:to])))
        span.end = end
        span.status = status
        span.error = error
        return span

    def _rows_of(self, trace_id: int) -> List[int]:
        self._catch_up()
        return self._index.get(trace_id, [])

    def _kinds_of(self, field: int, value: str) -> set:
        """Indexes of the kinds whose ``field`` is ``value``."""
        return {k for k, kind in enumerate(self._kinds)
                if kind[field] == value}

    def spans(self, trace_id: Optional[int] = None) -> List[Span]:
        self._catch_up()
        rows = (range(len(self)) if trace_id is None
                else self._index.get(trace_id, []))
        return [self._span(row) for row in rows]

    def trace_ids(self) -> List[int]:
        # not off the index: the end-of-run counters ask this of stores
        # nobody reads by trace, and would be all the index was built for
        return sorted(set(self._ids[0::3]))

    def trace_of_root(self, op: str) -> Optional[int]:
        """The first trace whose root span runs ``op`` (None if absent)."""
        kinds, ids = self._kinds_of(_OP, op), self._ids
        return min((ids[3 * row] for row, kind in enumerate(self._kind_of)
                    if kind in kinds and ids[3 * row + 2] == NO_PARENT),
                   default=None)

    def errors_since(self, start: float) -> Iterator[Tuple[int, float]]:
        """``(trace_id, duration)`` of each error row that started at or
        after ``start``, in the order they were retained."""
        kinds = self._kinds_of(_STATUS, "error")
        if not kinds:
            return
        ids, times = self._ids, self._times
        for row, kind in enumerate(self._kind_of):
            if kind in kinds and times[2 * row] >= start:
                yield ids[3 * row], times[2 * row + 1] - times[2 * row]

    # -- tree reconstruction -----------------------------------------------
    def tree(self, trace_id: int) -> List[SpanNode]:
        """Root :class:`SpanNode` list for one trace.

        A well-propagated trace has exactly one root; spans whose parent
        was dropped (store overflow) surface as extra roots rather than
        disappearing.
        """
        nodes = {span.span_id: SpanNode(span)
                 for span in self.spans(trace_id)}
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
        kinds, kind_of = self._kinds, self._kind_of
        return sorted({kinds[kind_of[row]][_SERVER]
                       for row in self._rows_of(trace_id)} - {""})

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
        self._walk_critical(root, root.span.end, segments)
        segments.reverse()
        return [seg for seg in segments if seg.duration > 0.0]

    def _walk_critical(self, node: SpanNode, bound_end: float,
                       segments: List[PathSegment]) -> None:
        # Appends segments in reverse-chronological order (caller reverses).
        span = node.span
        t = min(span.end, bound_end)
        for child in sorted(node.children,
                            key=lambda n: n.span.end,
                            reverse=True):
            c = child.span
            if c.start >= t or c.end <= span.start:
                continue  # outside the remaining window (e.g. reply hops)
            c_end = min(c.end, t)
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
        """Duration stats over the retained spans, filtered by plane/op."""
        kinds = {k for k, kind in enumerate(self._kinds)
                 if (plane is None or kind[_PLANE] == plane)
                 and (op is None or kind[_OP] == op)}
        times = self._times
        return summarize([times[2 * row + 1] - times[2 * row]
                          for row, kind in enumerate(self._kind_of)
                          if kind in kinds])

    def planes(self) -> List[str]:
        kinds = self._kinds
        return sorted({kinds[k][_PLANE] for k in set(self._kind_of)} - {""})

    def snapshot(self) -> dict:
        """Plain-dict summary (durations in ms) for the metrics registry."""
        out = {
            "spans": len(self),
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
