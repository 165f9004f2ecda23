"""Human-readable trace rendering for the ``repro trace`` CLI.

Kept inside :mod:`repro.obs` so span internals never leak into the CLI —
callers hand over a :class:`~repro.obs.store.SpanStore` and get text back
(span internals are not in ``repro.obs.__all__``).
"""

from __future__ import annotations

from collections import defaultdict

from repro.obs.store import SpanStore


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def format_trace_summary(store: SpanStore) -> str:
    """One line per trace: root op, span count, servers, duration."""
    lines = ["trace  root                      spans  servers  duration_ms"]
    for trace_id in store.trace_ids():
        spans = store.spans(trace_id)
        roots = [s for s in spans if s.parent_id is None]
        root = roots[0] if roots else spans[0]
        lines.append(
            f"{trace_id:5d}  {root.op[:24]:<24}  {len(spans):5d}  "
            f"{len(store.servers(trace_id)):7d}  "
            f"{_ms(root.duration):>11}")
    if len(lines) == 1:
        lines.append("(no traces recorded)")
    return "\n".join(lines)


def format_trace_tree(store: SpanStore, trace_id: int) -> str:
    """The reconstructed span tree, indented, with virtual timestamps."""
    roots = store.tree(trace_id)
    if not roots:
        return f"(no spans for trace {trace_id})"
    lines = [f"trace {trace_id} "
             f"(servers: {', '.join(store.servers(trace_id)) or '-'})"]
    for root in roots:
        for depth, node in root.walk():
            span = node.span
            where = f"{span.plane}@{span.server}" if span.server else span.plane
            mark = "" if span.status == "ok" else f"  !! {span.error}"
            lines.append(
                f"  {'  ' * depth}{span.op}  [{where}]  "
                f"t={span.start:.4f}s  +{_ms(span.duration)}ms{mark}")
    return "\n".join(lines)


def format_critical_path(store: SpanStore, trace_id: int) -> str:
    """The critical path: chronological segments, then the per-span
    contribution ranking that names the dominant hop/layer."""
    segments = store.critical_path(trace_id)
    if not segments:
        return f"(no critical path for trace {trace_id})"
    total = sum(seg.duration for seg in segments)
    lines = [f"critical path of trace {trace_id} "
             f"(end-to-end {_ms(total)}ms):"]
    for seg in segments:
        span = seg.span
        where = f"{span.plane}@{span.server}" if span.server else span.plane
        lines.append(f"  {seg.start:.4f}s  +{_ms(seg.duration):>8}ms  "
                     f"{span.op}  [{where}]")
    contrib = defaultdict(float)
    for seg in segments:
        where = (f"{seg.span.plane}@{seg.span.server}"
                 if seg.span.server else seg.span.plane)
        contrib[(seg.span.op, where)] += seg.duration
    lines.append("dominant contributors:")
    for (op, where), duration in sorted(contrib.items(),
                                        key=lambda kv: -kv[1]):
        share = 100.0 * duration / total if total > 0 else 0.0
        lines.append(f"  {_ms(duration):>8}ms  {share:5.1f}%  "
                     f"{op}  [{where}]")
    return "\n".join(lines)
