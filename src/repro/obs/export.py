"""Trace exporters: JSONL (lossless, reloadable) and Chrome trace-event
JSON (drop the file into Perfetto / ``chrome://tracing``).

Virtual-time convention: span timestamps are virtual seconds; the Chrome
exporter emits them as microseconds (``ts`` / ``dur``), so one simulated
second reads as one second on the Perfetto timeline.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Union

from repro.obs.span import Span
from repro.obs.store import SpanStore


def _spans_of(source: Union[SpanStore, Iterable[Span]]) -> List[Span]:
    if isinstance(source, SpanStore):
        return source.spans()
    return list(source)


# -- JSONL (lossless round-trip) -------------------------------------------

def to_jsonl_lines(source: Union[SpanStore, Iterable[Span]]) -> List[str]:
    """One compact JSON object per span."""
    return [json.dumps(span.to_dict(), sort_keys=True)
            for span in _spans_of(source)]


def export_jsonl(source: Union[SpanStore, Iterable[Span]],
                 path: str) -> int:
    """Write spans to ``path`` as JSONL; returns the span count."""
    lines = to_jsonl_lines(source)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


def load_jsonl(path: str) -> SpanStore:
    """Reload a JSONL export into a fresh (unbounded-enough) store."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    store = SpanStore(max_spans=max(len(rows), 1))
    for row in rows:
        store.add(row["trace_id"], row["span_id"], row["parent_id"],
                  row["start"], row["end"], row["op"], row["plane"],
                  row["server"], row["status"], row["error"], row["attrs"])
    return store


def tree_signature(store: SpanStore, trace_id: int) -> tuple:
    """A comparable fingerprint of one trace tree (export round-trip
    checks): nested ``(op, plane, server, start, end, status, children)``
    tuples, child order by start time."""
    def node_sig(node) -> tuple:
        span = node.span
        return (span.op, span.plane, span.server, span.start, span.end,
                span.status, tuple(node_sig(c) for c in node.children))
    return tuple(node_sig(root) for root in store.tree(trace_id))


# -- Chrome trace-event JSON (Perfetto) ------------------------------------

def to_chrome_trace(source: Union[SpanStore, Iterable[Span]]) -> dict:
    """The trace-event ``{"traceEvents": [...]}`` document.

    Each finished span becomes one complete ("X") event; servers map to
    pids (with ``process_name`` metadata) and traces to tids, so Perfetto
    lays a cross-server trace out as one row group per server.
    """
    spans = _spans_of(source)
    pids = {}
    events = []
    for span in spans:
        server = span.server or "(client)"
        pid = pids.setdefault(server, len(pids) + 1)
        end = span.end if span.end is not None else span.start
        events.append({
            "ph": "X",
            "name": span.op,
            "cat": span.plane or "span",
            "ts": span.start * 1e6,
            "dur": (end - span.start) * 1e6,
            "pid": pid,
            "tid": span.trace_id,
            "args": {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "status": span.status,
                "error": span.error,
                **span.attrs,
            },
        })
    meta = [{"ph": "M", "name": "process_name", "pid": pid,
             "args": {"name": server}}
            for server, pid in sorted(pids.items(), key=lambda kv: kv[1])]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def export_chrome(source: Union[SpanStore, Iterable[Span]],
                  path: str) -> int:
    """Write the Chrome trace-event document; returns the span count."""
    doc = to_chrome_trace(source)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
    return sum(1 for ev in doc["traceEvents"] if ev["ph"] == "X")
