"""SpanStore: bounded span retention, tree reconstruction, critical path.

A finished span is kept as one *row* of columns, not as an object: its
three ids in one ``array("q")``, its start and end in one ``array("d")``,
what a row shares with many others — op, plane, server, status, error,
the attr keys and the type of each attr value — as one interned *kind*,
its plain ``int`` attr values in one ``array("q")`` and its other attr
values in one flat list.  The kind decides which value goes to which
column, so writing a row is a kind lookup and one append per column,
cheap inside dispatch loops.  Reads that hand out spans
(:meth:`SpanStore.spans`, :meth:`~SpanStore.tree`,
:meth:`~SpanStore.critical_path`) build :class:`Span` objects on demand;
the scans (trace ids and their count, planes, latency stats, servers,
error rows) read the columns and build none.
"""

from __future__ import annotations

from array import array
from itertools import compress, repeat
from operator import is_, not_
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.metrics.stats import SummaryStats, summarize
from repro.obs.span import Span

#: default retention; under tracemalloc a retained request span reads
#: ≈71 bytes as a row (its int attrs in the int column) and a hop span
#: ≈72, so a full store is ≈3.6 MB
DEFAULT_MAX_SPANS = 50_000

#: the parent-id column's "no parent" (span ids count from 1)
NO_PARENT = -1

#: what the int column holds: a value of type ``int`` (not ``bool``,
#: not a subclass) within int64; a wider one is kept as an object
_INT64 = range(-2**63, 2**63)


class _Kind(NamedTuple):
    """What every row of one kind shares."""

    op: str
    plane: str
    server: str
    status: str
    error: str
    #: the attr keys, in the span's order
    keys: tuple
    #: per key, whether its value is in the int column; None when none is
    in_ints: Optional[tuple]
    #: per key, whether its value is in the object list
    in_values: tuple
    #: how many of a row's values the int column holds
    n_ints: int


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
        #: every row's int attr values, one after another
        self._ints = array("q")
        #: every row's other attr values, one after another
        self._values: List[Any] = []
        #: the distinct kinds, and each one's index by its key, which is
        #: ``(op, plane, server, status, error, *attr_keys, *value_types)``
        self._kinds: List[_Kind] = []
        self._kind_index: Dict[tuple, int] = {}
        # read side, caught up on the first read after a write
        #: row -> where its attr values start in ``_values`` and in
        #: ``_ints`` (one more entry than rows caught up: the last is
        #: where the next row's values start)
        self._offsets = array("q", [0])
        self._int_offsets = array("q", [0])
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
        values = attrs.values()
        key = (op, plane, server, status, error, *attrs, *map(type, values))
        kind = self._kind_index.get(key)
        if kind is None:
            kind = self._new_kind(key)
        spec = self._kinds[kind]
        if spec.in_ints is None:
            self._values.extend(values)
        else:
            ints = self._ints
            mark = len(ints)
            try:
                ints.extend(compress(values, spec.in_ints))
            except OverflowError:
                del ints[mark:]
                kind, spec = self._wide(key, values)
            self._values.extend(compress(values, spec.in_values))
        # fromlist: one call per column, where extend() would walk a
        # tuple through the generic iterator protocol
        self._ids.fromlist(
            [trace_id, span_id, NO_PARENT if parent_id is None else parent_id])
        self._times.fromlist([start, end])
        self._kind_of.append(kind)
        return True

    def _new_kind(self, key: tuple) -> int:
        """Intern the kind of a :meth:`add` key; its index."""
        n = (len(key) - 5) // 2
        in_ints = tuple(map(is_, key[5 + n:], repeat(int)))
        n_ints = sum(in_ints)
        kind = self._kind_index[key] = len(self._kinds)
        self._kinds.append(_Kind(*key[:5], key[5:5 + n],
                                 in_ints if n_ints else None,
                                 tuple(map(not_, in_ints)), n_ints))
        return kind

    def _wide(self, key: tuple, values) -> Tuple[int, _Kind]:
        """The write path for attrs with an int past int64: the kind that
        keeps each such int as an object, its ints appended."""
        n = len(values)
        key = key[:5 + n] + tuple(
            object if t is int and v not in _INT64 else t
            for t, v in zip(key[5 + n:], values))
        kind = self._kind_index.get(key)
        if kind is None:
            kind = self._new_kind(key)
        spec = self._kinds[kind]
        if spec.in_ints is not None:
            self._ints.extend(compress(values, spec.in_ints))
        return kind, spec

    # -- lookup ------------------------------------------------------------
    def _catch_up(self) -> None:
        """Extend the by-trace index and the attr offsets over the rows
        added since the last read."""
        index, ids, offsets = self._index, self._ids, self._offsets
        int_offsets = self._int_offsets
        kinds, kind_of = self._kinds, self._kind_of
        at, int_at = offsets[-1], int_offsets[-1]
        for row in range(len(offsets) - 1, len(kind_of)):
            index.setdefault(ids[3 * row], []).append(row)
            spec = kinds[kind_of[row]]
            at += len(spec.keys) - spec.n_ints
            int_at += spec.n_ints
            offsets.append(at)
            int_offsets.append(int_at)

    def _span(self, row: int) -> Span:
        """A caught-up row as a fresh :class:`Span`, equal to the one
        that was finished."""
        spec = self._kinds[self._kind_of[row]]
        trace_id, span_id, parent_id = self._ids[3 * row:3 * row + 3]
        start, end = self._times[2 * row:2 * row + 2]
        at, to = self._offsets[row:row + 2]
        values = self._values[at:to]
        if spec.in_ints is not None:
            at, to = self._int_offsets[row:row + 2]
            ints, others = iter(self._ints[at:to]), iter(values)
            values = [next(ints) if in_ints else next(others)
                      for in_ints in spec.in_ints]
        span = Span(trace_id, span_id,
                    None if parent_id == NO_PARENT else parent_id, spec.op,
                    spec.plane, spec.server, start,
                    dict(zip(spec.keys, values)))
        span.end = end
        span.status = spec.status
        span.error = spec.error
        return span

    def _rows_of(self, trace_id: int) -> List[int]:
        self._catch_up()
        return self._index.get(trace_id, [])

    def _kinds_of(self, field: str, value: str) -> set:
        """Indexes of the kinds whose ``field`` is ``value``."""
        return {k for k, kind in enumerate(self._kinds)
                if getattr(kind, field) == value}

    def spans(self, trace_id: Optional[int] = None) -> List[Span]:
        self._catch_up()
        rows = (range(len(self)) if trace_id is None
                else self._index.get(trace_id, []))
        return [self._span(row) for row in rows]

    def _sorted_trace_column(self) -> np.ndarray:
        """Every row's trace id, ascending: a copy of the id column's
        first field, with no int object per row.  Not off the index: the
        end-of-run counters ask for the count of stores nobody reads by
        trace, and would be all the index was built for."""
        ids = np.frombuffer(self._ids, dtype=np.int64)[0::3].copy()
        ids.sort()
        return ids

    def trace_ids(self) -> List[int]:
        ids = self._sorted_trace_column()
        if len(ids):
            ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
        return ids.tolist()

    def trace_count(self) -> int:
        """``len(self.trace_ids())``, without the list."""
        ids = self._sorted_trace_column()
        return (int(np.count_nonzero(ids[1:] != ids[:-1])) + 1 if len(ids)
                else 0)

    def trace_of_root(self, op: str) -> Optional[int]:
        """The first trace whose root span runs ``op`` (None if absent)."""
        kinds, ids = self._kinds_of("op", op), self._ids
        return min((ids[3 * row] for row, kind in enumerate(self._kind_of)
                    if kind in kinds and ids[3 * row + 2] == NO_PARENT),
                   default=None)

    def errors_since(self, start: float) -> Iterator[Tuple[int, float]]:
        """``(trace_id, duration)`` of each error row that started at or
        after ``start``, in the order they were retained."""
        kinds = self._kinds_of("status", "error")
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
        return sorted({kinds[kind_of[row]].server
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
    def latency_stats(self, plane: str) -> SummaryStats:
        """Duration stats over the retained spans of one plane."""
        kinds = {k for k, kind in enumerate(self._kinds)
                 if kind.plane == plane}
        times = self._times
        return summarize([times[2 * row + 1] - times[2 * row]
                          for row, kind in enumerate(self._kind_of)
                          if kind in kinds])

    def planes(self) -> List[str]:
        kinds = self._kinds
        return sorted({kinds[k].plane for k in set(self._kind_of)} - {""})

    def snapshot(self) -> dict:
        """Plain-dict summary (durations in ms) for the metrics registry."""
        out = {
            "spans": len(self),
            "traces": self.trace_count(),
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
