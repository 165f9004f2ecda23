"""Measurement utilities for experiments.

- :class:`LatencyRecorder` — collects per-operation latencies and reduces
  them to summary statistics (mean / percentiles).
- :class:`PipelineMetrics` — per plane, one latency sample per request
  (the sample count is the request count) and an error-type tally per
  failure, fed by the request pipeline's recording interceptor.
- :class:`FederationMetrics` — peer-cache invalidation, subscription
  lifecycle, and per-app staleness counters fed by the federation layer.
- :class:`DirectoryMetrics` — directory-plane read/write counters, replica
  failovers, and lookup latency fed by the sharded directory client.
- :class:`StorageMetrics` — WAL append / snapshot / recovery counters fed
  by the durable state plane's journal.
- :class:`Reservoir` — bounded sample store (exact count/mean/min/max,
  reservoir-sampled percentiles) backing the long-running collectors.
- :class:`SummaryStats` — the reduction product, printable as table rows.
"""

from repro.metrics.collectors import (
    DirectoryMetrics,
    FederationMetrics,
    LatencyRecorder,
    PipelineMetrics,
    StorageMetrics,
)
from repro.metrics.stats import Reservoir, SummaryStats, summarize

__all__ = [
    "DirectoryMetrics",
    "FederationMetrics",
    "LatencyRecorder",
    "PipelineMetrics",
    "Reservoir",
    "StorageMetrics",
    "SummaryStats",
    "summarize",
]
