"""Structured JSONL logging stamped with sim time and trace context.

A :class:`StructuredLog` replaces ad-hoc ``print`` calls and silent
drops with machine-readable records: every ``event()`` call produces one
dict auto-stamped with the simulated time, the owning server's id, and
— when the calling process has a current span on the tracer — its
trace/span ids, so a log line can be joined against the span store
without any manual correlation.

Records are held in a bounded ring (oldest dropped first) and can also
be streamed to a ``sink`` as JSON lines, which is how
``tools/export_health_artifacts.py`` writes the E10b fleet's as
``e10_log.jsonl``.  Logging is pure bookkeeping: no events, no messages,
no CPU — safe to leave on inside golden scenarios.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

#: default record retention per log
DEFAULT_CAPACITY = 10_000

LEVELS = ("debug", "info", "warning", "error")


class StructuredLog:
    """Bounded, trace-correlated event log for one server (or tool)."""

    def __init__(self, *, clock: Optional[Callable[[], float]] = None,
                 server: str = "", tracer=None,
                 sink: Optional[Callable[[str], None]] = None,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        self._clock = clock
        self.server = server
        self.tracer = tracer
        #: optional callable receiving each record as a JSON line
        self.sink = sink
        self._records: Deque[dict] = deque(maxlen=capacity)
        self._counts: Dict[str, int] = {}
        self.dropped = 0

    def event(self, event: str, level: str = "info", **fields: Any) -> dict:
        """Record one structured event; returns the record."""
        record: Dict[str, Any] = {
            "ts": self._clock() if self._clock is not None else 0.0,
            "server": self.server,
            "level": level if level in LEVELS else "info",
            "event": event,
        }
        span = (self.tracer.current_span()
                if self.tracer is not None else None)
        if span is not None:
            record["trace_id"] = span.trace_id
            record["span_id"] = span.span_id
        for key, value in fields.items():
            record[key] = value
        if len(self._records) == self._records.maxlen:
            self.dropped += 1
        self._records.append(record)
        self._counts[event] = self._counts.get(event, 0) + 1
        if self.sink is not None:
            self.sink(json.dumps(record, sort_keys=True, default=str))
        return record

    def warn(self, event: str, **fields: Any) -> dict:
        return self.event(event, level="warning", **fields)

    def error(self, event: str, **fields: Any) -> dict:
        return self.event(event, level="error", **fields)

    # -- queries -----------------------------------------------------------
    def records(self, event: Optional[str] = None,
                level: Optional[str] = None) -> List[dict]:
        out = list(self._records)
        if event is not None:
            out = [r for r in out if r["event"] == event]
        if level is not None:
            out = [r for r in out if r["level"] == level]
        return out

    def __len__(self) -> int:
        return len(self._records)

    def snapshot(self) -> dict:
        return {"records": len(self._records), "dropped": self.dropped,
                "events": dict(self._counts)}
