"""Table formatting for experiment output.

``python -m repro run <id>`` prints an experiment's rows through
:func:`format_table` and the counters every scenario row carries through
:func:`format_pipeline_summary`, so EXPERIMENTS.md can quote both
directly; :data:`FOOTER_GROUPS` is the one list of those counters.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(rows: Sequence[Dict], columns: Sequence[str],
                 title: str = "") -> str:
    """Render dict-rows as a fixed-width text table."""
    if not rows:
        return f"{title}\n(no rows)"
    widths = {c: len(c) for c in columns}
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for c in columns:
            value = row.get(c, "")
            if isinstance(value, float):
                text = f"{value:.2f}"
            else:
                text = str(value)
            widths[c] = max(widths[c], len(text))
            cells.append(text)
        rendered.append(cells)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    rule = "-" * len(header)
    lines = [title, rule, header, rule] if title else [header, rule]
    for cells in rendered:
        lines.append("  ".join(cell.rjust(widths[c])
                               for cell, c in zip(cells, columns)))
    lines.append(rule)
    return "\n".join(lines)


#: The footer under every table and the row keys behind it, declared
#: once: ``label → ((shown_name, row_key), …)``, one entry per footer
#: line, in print order.  :func:`format_pipeline_summary` prints ``label:
#: shown_name=<row_key summed over the rows> …``;
#: ``repro.bench.scenarios.pipeline_counters`` fills exactly these row
#: keys.  A ``shown_name`` of None rides in the row but is not printed.
FOOTER_GROUPS = {
    "pipeline": (("http", "http_requests"), ("orb", "orb_requests"),
                 ("channel", "channel_requests"),
                 ("errors", "pipeline_errors"),
                 ("sessions_expired", "sessions_expired")),
    "federation": (("subscribes", "fed_subscribes"),
                   ("unsubscribes", "fed_unsubscribes"),
                   ("invalidations", "fed_invalidations"),
                   ("poll_failovers", "fed_poll_failovers"),
                   (None, "fed_discovery_skipped")),
    "health": (("healthy", "health_healthy"),
               ("degraded", "health_degraded"),
               ("unhealthy", "health_unhealthy"),
               ("unknown", "health_unknown"),
               ("alerts_fired", "alerts_fired"),
               ("alerts_resolved", "alerts_resolved"),
               ("failovers", "health_failovers")),
    "directory": (("lookups", "dir_lookups"), ("locates", "dir_locates"),
                  ("publishes", "dir_publishes"),
                  ("read_failovers", "dir_read_failovers"),
                  ("write_skips", "dir_write_skips"),
                  ("stale_retries", "dir_stale_retries"),
                  ("stub_hits", "dir_stub_hits"),
                  ("stub_misses", "dir_stub_misses")),
    "storage": (("appends", "storage_appends"),
                ("snapshots", "storage_snapshots"),
                ("compacted", "storage_compacted"),
                ("recoveries", "storage_recoveries"),
                ("replayed", "storage_replayed")),
    "obs": (("log_records", "log_records"), ("log_dropped", "log_dropped"),
            ("ts_series", "ts_series"), ("ts_points", "ts_points")),
    "costs": (("requests", "cost_requests"), ("events", "cost_events"),
              ("cpu_us", "cost_cpu_us"), ("wan_bytes", "cost_wan_bytes"),
              ("dropped_frames", "cost_dropped_frames"),
              ("dropped_bytes", "cost_dropped_bytes"),
              ("entries", "cost_entries")),
}


def format_pipeline_summary(rows: Sequence[Dict]) -> str:
    """Footer lines summing the :data:`FOOTER_GROUPS` counters over
    ``rows``, one line per group the rows carry; the health line ends
    with the worst ``detection_latency_s`` and the costs line with the
    first ``cost_top_principal``, where rows report them.

    Returns "" when the rows carry no pipeline keys (e.g. rows loaded
    from a pre-pipeline results file)."""
    def carried(entries) -> bool:
        return any(key in row for row in rows for _name, key in entries)

    if not carried(FOOTER_GROUPS["pipeline"]):
        return ""
    lines = []
    for label, entries in FOOTER_GROUPS.items():
        shown = [(name, key) for name, key in entries if name]
        if not carried(shown):
            continue
        line = f"{label}: " + " ".join(
            f"{name}={sum(row.get(key, 0) for row in rows)}"
            for name, key in shown)
        if label == "health":
            latencies = [row["detection_latency_s"] for row in rows
                         if row.get("detection_latency_s") is not None]
            if latencies:
                line += f" detection_latency_s={max(latencies):.2f}"
        elif label == "costs":
            top = [row.get("cost_top_principal") for row in rows
                   if row.get("cost_top_principal") not in (None, "-")]
            if top:
                line += f" top_principal={top[0]}"
        lines.append(line)
    return "\n".join(lines)


def format_registry(registry) -> str:
    """Text exposition of a :class:`repro.obs.MetricsRegistry` snapshot.

    One ``source.dotted.key value`` line per leaf, sorted, so the unified
    metrics surface (pipeline + federation + traffic + spans) reads the
    same way regardless of which collectors the deployment registered.
    """
    lines = []
    for key, value in registry.flattened():
        if isinstance(value, float):
            lines.append(f"{key} {value:.3f}")
        else:
            lines.append(f"{key} {value}")
    return "\n".join(lines)
