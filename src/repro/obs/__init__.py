"""repro.obs — causal tracing and unified metrics over simulated time.

The observability layer for the collaboratory: a :class:`Tracer` mints
spans stamped with virtual time (``sim.now``), context propagates
in-process through the interceptor pipeline and across servers through
frame metadata / GIOP service contexts, and the :class:`SpanStore`
reconstructs cross-server request trees and their critical paths.

Everything outside this package goes through this facade, and its
``__all__`` is the boundary: the facade rule of
``tools/check_pipeline_boundary.py`` rejects submodule imports and any
use of a name the package defines but does not export (``Span``,
``TraceContext``, ``SpanNode``, ...) elsewhere.
"""

from repro.obs.accounting import (COST_DIMENSIONS, DispatchProfiler,
                                  RequestCostLedger, format_cost_report)
from repro.obs.export import (export_chrome, export_jsonl, load_jsonl,
                              to_chrome_trace, to_jsonl_lines,
                              tree_signature)
from repro.obs.interceptor import RecordingInterceptor
from repro.obs.log import StructuredLog
from repro.obs.registry import MetricsRegistry
from repro.obs.render import (format_critical_path, format_trace_summary,
                              format_trace_tree)
from repro.obs.store import PathSegment, SpanStore
from repro.obs.timeseries import TimeSeriesRegistry, to_chrome_counters
from repro.obs.tracer import SAMPLE_ALWAYS, SAMPLE_OFF, Tracer

__all__ = [
    "COST_DIMENSIONS",
    "DispatchProfiler",
    "MetricsRegistry",
    "PathSegment",
    "RecordingInterceptor",
    "RequestCostLedger",
    "SAMPLE_ALWAYS",
    "SAMPLE_OFF",
    "SpanStore",
    "StructuredLog",
    "TimeSeriesRegistry",
    "Tracer",
    "export_chrome",
    "export_jsonl",
    "format_cost_report",
    "format_critical_path",
    "format_trace_summary",
    "format_trace_tree",
    "load_jsonl",
    "to_chrome_counters",
    "to_chrome_trace",
    "to_jsonl_lines",
    "tree_signature",
]
