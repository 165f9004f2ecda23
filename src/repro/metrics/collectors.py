"""Runtime collectors driven inside simulation scenarios."""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.metrics.stats import Reservoir, SummaryStats, summarize

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator


class LatencyRecorder:
    """Collects latency samples per named operation."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._samples: Dict[str, List[float]] = defaultdict(list)
        self._open: Dict[tuple, float] = {}

    # -- explicit samples -----------------------------------------------
    def record(self, op: str, latency: float) -> None:
        self._samples[op].append(latency)

    # -- start/stop spans ---------------------------------------------------
    def start(self, op: str, key) -> None:
        """Open a span identified by ``(op, key)`` at the current time."""
        self._open[(op, key)] = self.sim.now

    def stop(self, op: str, key) -> Optional[float]:
        """Close a span; records and returns its duration."""
        t0 = self._open.pop((op, key), None)
        if t0 is None:
            return None
        latency = self.sim.now - t0
        self._samples[op].append(latency)
        return latency

    # -- reduction --------------------------------------------------------
    def samples(self, op: str) -> List[float]:
        return list(self._samples.get(op, ()))

    def stats(self, op: str) -> SummaryStats:
        return summarize(self._samples.get(op, ()))


class PipelineMetrics:
    """Per-plane latency samples and error tallies, one record a request.

    Fed by :class:`~repro.obs.RecordingInterceptor` as every request on
    any plane (http / orb / channel) unwinds its interceptor chain; one
    shared instance per
    :class:`~repro.core.server.DiscoverServer` makes all three planes
    report into one place.  Latencies are virtual seconds spent inside
    the pipeline (dispatch + handler), excluding the transport costs
    charged before the chain starts.

    A request is counted once, as one latency sample in its plane's
    reservoir: the reservoir's exact count is the plane's request count
    and its exact mean the mean latency, while percentiles are estimated
    from the bounded sample, so a long-running server's metrics use O(1)
    memory.  A failed request also bumps its error type's tally, and the
    plane's errors are the sum of those.

    Given a time-series registry (``timeseries``), every observation is
    also one point of the ``pipeline.latency.<plane>`` histogram — its
    buckets carry span-id exemplars, and each bucket's ``count`` is the
    requests it saw — plus, on failure, one ``pipeline.errors.<plane>``
    counter increment.
    """

    def __init__(self, timeseries=None) -> None:
        self._error_types: Dict[str, Dict[str, int]] = {}
        self._latencies: Dict[str, Reservoir] = defaultdict(Reservoir)
        #: optional TimeSeriesRegistry sink
        self.timeseries = timeseries

    def observe(self, plane: str, latency: float,
                error_type: Optional[str] = None,
                exemplar: Optional[int] = None) -> None:
        """Record one completed request on ``plane``."""
        self._latencies[plane].add(latency)
        ts = self.timeseries
        if ts is not None:
            ts.observe(f"pipeline.latency.{plane}", latency,
                       exemplar=exemplar)
        if error_type is not None:
            by_type = self._error_types.setdefault(plane, defaultdict(int))
            by_type[error_type] += 1
            if ts is not None:
                ts.inc(f"pipeline.errors.{plane}")

    # -- reduction --------------------------------------------------------
    def requests(self, plane: Optional[str] = None) -> int:
        if plane is None:
            return sum(r.count for r in self._latencies.values())
        reservoir = self._latencies.get(plane)
        return reservoir.count if reservoir is not None else 0

    def errors(self, plane: Optional[str] = None) -> int:
        if plane is None:
            return sum(sum(by_type.values())
                       for by_type in self._error_types.values())
        return sum(self._error_types.get(plane, {}).values())

    def error_types(self, plane: str) -> Dict[str, int]:
        return dict(self._error_types.get(plane, ()))

    def latency_stats(self, plane: str) -> SummaryStats:
        reservoir = self._latencies.get(plane)
        return reservoir.stats() if reservoir is not None else summarize(())

    def latency_percentile(self, plane: str, percent: float) -> float:
        """``latency_stats(plane).p<percent>`` alone (see
        :meth:`Reservoir.percentile`)."""
        reservoir = self._latencies.get(plane)
        return reservoir.percentile(percent) if reservoir is not None else 0.0

    def planes(self) -> List[str]:
        return sorted(self._latencies)

    def snapshot(self) -> dict:
        """Plain-dict summary (latencies in milliseconds) for reports."""
        out = {}
        for plane in self.planes():
            stats = self.latency_stats(plane).scaled(1e3)
            out[plane] = {
                "requests": stats.count,
                "errors": self.errors(plane),
                "mean_latency_ms": stats.mean,
                "p90_latency_ms": stats.p90,
            }
        return out


class CounterMetrics:
    """Named integer counters plus an optional time-series sink — what the
    federation, directory and storage collectors share."""

    def __init__(self, timeseries=None) -> None:
        self._counters: Dict[str, int] = defaultdict(int)
        #: optional TimeSeriesRegistry sink
        self.timeseries = timeseries

    def count(self, name: str, n: int = 1) -> None:
        self._counters[name] += n

    def get(self, name: str) -> int:
        return self._counters.get(name, 0)


class FederationMetrics(CounterMetrics):
    """Counters and per-app staleness for the federation layer.

    Fed by :mod:`repro.federation` — the :class:`PeerRegistry` counts
    cache invalidations (``app_invalidations`` / ``peer_invalidations``)
    and the :class:`SubscriptionManager` counts subscription lifecycle
    events (``subscribes`` / ``unsubscribes`` / ``pollers_started`` /
    ``poll_rounds`` / ``poll_failovers``).  Staleness is virtual seconds
    from an application stamping an update to this server receiving it
    over the peer network (push or poll).  Its mean per application is
    all a report reads, so each application keeps a running
    ``[count, total]`` — two numbers however long the collaboration
    runs; the distribution is the ``federation.staleness`` histogram.
    """

    def __init__(self, timeseries=None) -> None:
        super().__init__(timeseries)
        #: app id -> [updates observed, their summed staleness in seconds]
        self._staleness: Dict[str, list] = {}

    def observe_staleness(self, app_id: str, lag: float) -> None:
        """Record one remote update's age on arrival."""
        entry = self._staleness.get(app_id)
        if entry is None:
            entry = self._staleness[app_id] = [0, 0.0]
        entry[0] += 1
        entry[1] += lag
        if self.timeseries is not None:
            self.timeseries.observe("federation.staleness", lag)

    def snapshot(self) -> dict:
        """Plain-dict summary (mean staleness in milliseconds) for
        reports."""
        out = dict(self._counters)
        for app_id, (count, total) in sorted(self._staleness.items()):
            out[f"staleness_ms[{app_id}]"] = total / count * 1e3
        return out


class DirectoryMetrics(CounterMetrics):
    """Counters and lookup latency for one server's ``DirectoryClient``.

    Fed by :class:`repro.directory.client.DirectoryClient` — counts
    reads/writes against the sharded directory plane, replica failovers
    on reads (``read_failovers``), replica write skips on write-through
    (``write_skips``), stale-ring-epoch retries and stub-cache churn.
    ``lookups`` covers user lookups + authentications; ``locates`` covers
    app-placement reads.  Latency samples are virtual seconds from issuing
    a directory read to its reply, reservoir-bounded (exact count/mean,
    sampled percentiles).
    """

    def __init__(self, timeseries=None) -> None:
        super().__init__(timeseries)
        self._read_latency = Reservoir()

    def observe_read(self, latency: float) -> None:
        """Record one successful directory read's round-trip time."""
        self._read_latency.add(latency)
        if self.timeseries is not None:
            self.timeseries.observe("directory.read_latency", latency)

    def read_stats(self) -> SummaryStats:
        return self._read_latency.stats()

    def read_reservoir(self) -> Reservoir:
        """The latency reservoir itself, for exact cross-server merges."""
        return self._read_latency

    def snapshot(self) -> dict:
        out = dict(self._counters)
        stats = self.read_stats().scaled(1e3)
        out["read_latency_ms"] = {"count": stats.count, "mean": stats.mean,
                                  "p50": stats.p50, "p99": stats.p99}
        return out


class StorageMetrics(CounterMetrics):
    """Counters for one server's durable state plane (:mod:`repro.storage`).

    Fed by the server's :class:`~repro.storage.StateJournal` —
    ``wal_appends`` (journaled mutations), ``snapshots`` /
    ``records_compacted`` (snapshot + compaction passes),
    ``recoveries`` / ``records_replayed`` (restart recovery).
    """

    def __init__(self, timeseries=None, ledger=None) -> None:
        super().__init__(timeseries)
        #: optional RequestCostLedger — WAL appends made while a request
        #: is being handled join that request's cost vector
        self.ledger = ledger

    def count(self, name: str, n: int = 1) -> None:
        self._counters[name] += n
        if self.timeseries is not None:
            self.timeseries.inc(f"storage.{name}", n)
        if self.ledger is not None and name == "wal_appends":
            self.ledger.charge("wal_appends", n,
                               plane="storage", operation="append")

    def snapshot(self) -> dict:
        return dict(self._counters)
