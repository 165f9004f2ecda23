"""Sim-time-native time-series telemetry store.

Counters, gauges, and latency histograms are recorded continuously into
fixed-width sim-time buckets.  Retention is one ring per series: once it
holds ``RING_BUCKETS`` buckets, opening a new one drops the oldest, so
long runs stay bounded and the retained window keeps full resolution.

Latency distributions use log-bucketed histograms (8 buckets per octave,
~9.05% relative bucket width).  Bucket counts are plain integers keyed
by the bucket index, so two histograms merge by adding counts — the
merged quantiles are *identical* whether 200 per-server histograms are
merged pairwise, in any order, or all the values were recorded into one
combined histogram.  No re-sampling, no merge-order dependence.

Recording is zero-event bookkeeping: nothing here schedules simulator
events, charges CPU, or moves wire bytes.  The golden experiment tables
are bit-for-bit unaffected by the plane being enabled.

Everything outside this module goes through the ``TimeSeriesRegistry``
facade: ``__all__`` is the boundary, and ``LogHistogram``/``TimeSeries``
are not in it.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "TimeSeriesRegistry",
    "to_chrome_counters",
]

# 8 histogram buckets per octave: bucket upper/lower ratio is 2^(1/8),
# so any quantile read off a bucket boundary is within ~9.05% of the
# exact value — inside the 10% recovery tolerance E13 asserts.
BUCKETS_PER_OCTAVE = 8
_INV_LOG_GROWTH = BUCKETS_PER_OCTAVE / math.log(2.0)
_GROWTH = 2.0 ** (1.0 / BUCKETS_PER_OCTAVE)

DEFAULT_BUCKET_WIDTH = 0.25  # sim-seconds per bucket
RING_BUCKETS = 256  # buckets a series retains: 64 s at the default width

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"
_KINDS = (COUNTER, GAUGE, HISTOGRAM)


class LogHistogram:
    """Mergeable log-bucketed histogram with exact aggregate moments.

    ``count``/``total``/``minimum``/``maximum`` are exact; quantiles are
    read from the log-bucket boundaries (clamped to the exact extrema).
    Values ``<= 0`` land in a dedicated zero bucket.  Each bucket can
    carry one exemplar (e.g. a span id); merge keeps the max exemplar so
    the result is independent of merge order.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "zero", "buckets",
                 "exemplars")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.zero = 0
        self.buckets: Dict[int, int] = {}
        self.exemplars: Dict[int, Any] = {}

    @staticmethod
    def bucket_index(value: float) -> Optional[int]:
        """Log-bucket index for ``value``; None for the zero bucket."""
        if value <= 0.0:
            return None
        return math.floor(math.log(value) * _INV_LOG_GROWTH)

    @staticmethod
    def bucket_upper(index: int) -> float:
        """Exclusive upper bound of bucket ``index``."""
        return _GROWTH ** (index + 1)

    def add(self, value: float, exemplar: Any = None) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        index = self.bucket_index(value)
        if index is None:
            self.zero += 1
            return
        self.buckets[index] = self.buckets.get(index, 0) + 1
        if exemplar is not None:
            prior = self.exemplars.get(index)
            if prior is None or exemplar > prior:
                self.exemplars[index] = exemplar

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into self; commutative and associative."""
        self.count += other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        self.zero += other.zero
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        for index, exemplar in other.exemplars.items():
            prior = self.exemplars.get(index)
            if prior is None or exemplar > prior:
                self.exemplars[index] = exemplar
        return self

    def copy(self) -> "LogHistogram":
        out = LogHistogram()
        out.merge(self)
        return out

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1], from bucket boundaries.

        Edge cases are pinned (tests/obs/test_accounting.py relies on
        them): an **empty** histogram returns ``0.0`` — never None, so
        rollup arithmetic needs no guards — and a **single** observation
        is returned exactly for every ``q`` (including ``q=0``), because
        the min/max clamp collapses its bucket's boundary to the lone
        value.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero:
            return min(self.maximum, 0.0)
        seen = self.zero
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                upper = self.bucket_upper(index)
                return max(self.minimum, min(upper, self.maximum))
        return self.maximum

    def cumulative(self) -> List[Tuple[float, int]]:
        """Ascending ``(upper_bound, cumulative_count)`` pairs.

        The final pair is ``(inf, count)`` — the shape Prometheus
        ``_bucket{le=...}`` exposition wants.
        """
        out: List[Tuple[float, int]] = []
        seen = self.zero
        if self.zero:
            out.append((0.0, seen))
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            out.append((self.bucket_upper(index), seen))
        out.append((math.inf, self.count))
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
            "zero": self.zero,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
            "exemplars": {str(k): v
                          for k, v in sorted(self.exemplars.items())},
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "LogHistogram":
        out = cls()
        out.count = int(doc["count"])
        out.total = float(doc["total"])
        out.minimum = math.inf if doc["min"] is None else float(doc["min"])
        out.maximum = -math.inf if doc["max"] is None else float(doc["max"])
        out.zero = int(doc["zero"])
        out.buckets = {int(k): int(v) for k, v in doc["buckets"].items()}
        out.exemplars = {int(k): v for k, v in doc["exemplars"].items()}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"LogHistogram(count={self.count}, mean={self.mean:.6g}, "
                f"buckets={len(self.buckets)})")


class TimeSeries:
    """One named metric stream bucketed by sim time.

    ``buckets`` maps ``bucket_index -> value`` where the bucket covers
    ``[index * width, (index + 1) * width)``.  It is a ring: a point in
    a new bucket opens it at the newest end, and once more than
    ``RING_BUCKETS`` are held the oldest is dropped.

    Invariant: the keys are strictly ascending in insertion order.  The
    simulator clock never steps back, so ``_open`` refuses a bucket
    behind the newest; ``merge_from`` and ``from_dict`` restore the order
    afterwards.  Readers lean on it: the oldest bucket is the first key,
    the newest the last, and a range read scans from the newest bucket
    and stops at the first one out of range — its cost follows the range
    asked for, not the history retained.
    """

    __slots__ = ("name", "kind", "width", "buckets", "points")

    def __init__(self, name: str, kind: str, *,
                 width: float = DEFAULT_BUCKET_WIDTH) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown series kind: {kind!r}")
        self.name = name
        self.kind = kind
        self.width = float(width)
        self.buckets: Dict[int, Any] = {}
        self.points = 0  # observations recorded (not buckets retained)

    # -- recording ---------------------------------------------------

    def inc(self, now: float, n: float = 1.0) -> None:
        index = int(now // self.width)
        prior = self.buckets.get(index)
        if prior is None:
            self._open(index, 0.0 + n)
        else:
            self.buckets[index] = prior + n
        self.points += 1

    def set(self, now: float, value: float) -> None:
        index = int(now // self.width)
        if index in self.buckets:
            self.buckets[index] = value
        else:
            self._open(index, value)
        self.points += 1

    def observe(self, now: float, value: float, exemplar: Any = None) -> None:
        index = int(now // self.width)
        hist = self.buckets.get(index)
        if hist is None:
            hist = LogHistogram()
            self._open(index, hist)
        hist.add(value, exemplar)
        self.points += 1

    def _open(self, index: int, value: Any) -> None:
        """Add the new bucket ``index`` at the newest end of the ring."""
        buckets = self.buckets
        if buckets:
            newest = next(reversed(buckets))
            if index < newest:
                raise ValueError(
                    f"series {self.name!r}: bucket {index} opens behind "
                    f"the newest, {newest}")
        buckets[index] = value
        if len(buckets) > RING_BUCKETS:
            del buckets[next(iter(buckets))]

    def _lay(self, items: Iterable[Tuple[int, Any]]) -> None:
        """Refill the ring from ``items``: ascending keys, newest kept."""
        self.buckets = dict(
            sorted(items, key=lambda item: item[0])[-RING_BUCKETS:])

    # -- querying ----------------------------------------------------

    def buckets_between(self, start: float,
                        end: float) -> List[Tuple[float, float, Any]]:
        """``(bucket_start, bucket_width, value)`` overlapping [start, end).

        Sorted by bucket start; read from the newest bucket back to the
        first one that ends at or before ``start``.
        """
        out: List[Tuple[float, float, Any]] = []
        w = self.width
        for index, value in reversed(self.buckets.items()):
            t0 = index * w
            if t0 + w <= start:
                break
            if t0 < end:
                out.append((t0, w, value))
        out.reverse()
        return out

    def merged_histogram(self, start: float, end: float) -> LogHistogram:
        merged = LogHistogram()
        for _, _, value in self.buckets_between(start, end):
            merged.merge(value)
        return merged

    def latest(self) -> Optional[Tuple[float, Any]]:
        """``(bucket_start, value)`` of the most recent bucket, if any."""
        if not self.buckets:
            return None
        index = next(reversed(self.buckets))
        return index * self.width, self.buckets[index]

    # -- merge / serialization ---------------------------------------

    def merge_from(self, other: "TimeSeries") -> "TimeSeries":
        """Fold another server's series in, bucket by bucket.

        Counters and gauges add (a fleet-level gauge is the sum of the
        per-server gauges); histograms merge exactly.
        """
        if other.kind != self.kind or other.width != self.width:
            raise ValueError(
                f"cannot merge series {other.name!r} ({other.kind}, "
                f"width={other.width}) into {self.name!r} "
                f"({self.kind}, width={self.width})")
        self.points += other.points
        mine = self.buckets
        for index, value in other.buckets.items():
            prior = mine.get(index)
            if self.kind == HISTOGRAM:
                if prior is None:
                    mine[index] = value.copy()
                else:
                    prior.merge(value)
            elif prior is None:
                mine[index] = value
            else:
                mine[index] = prior + value
        self._lay(mine.items())
        return self

    def to_dict(self) -> Dict[str, Any]:
        if self.kind == HISTOGRAM:
            buckets = {str(k): v.to_dict() for k, v in self.buckets.items()}
        else:
            buckets = {str(k): v for k, v in self.buckets.items()}
        return {"name": self.name, "kind": self.kind, "width": self.width,
                "points": self.points, "buckets": buckets}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TimeSeries":
        out = cls(doc["name"], doc["kind"], width=doc["width"])
        out.points = int(doc["points"])
        if out.kind == HISTOGRAM:
            out._lay((int(k), LogHistogram.from_dict(v))
                     for k, v in doc["buckets"].items())
        else:
            out._lay((int(k), v) for k, v in doc["buckets"].items())
        return out


class TimeSeriesRegistry:
    """Facade over a set of named series sharing one sim clock.

    This is the only type the rest of the tree may name (see this
    module's ``__all__``): emitters call ``inc``/``set_gauge``/``observe``
    and readers use ``query``/``merged``/``to_dict``.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None, *,
                 bucket_width: float = DEFAULT_BUCKET_WIDTH) -> None:
        self._clock = clock or (lambda: 0.0)
        self.bucket_width = float(bucket_width)
        self._series: Dict[str, TimeSeries] = {}

    # -- series management -------------------------------------------

    def _get(self, name: str, kind: str) -> TimeSeries:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = TimeSeries(
                name, kind, width=self.bucket_width)
        elif series.kind != kind:
            raise ValueError(
                f"series {name!r} is a {series.kind}, not a {kind}")
        return series

    def names(self) -> List[str]:
        return sorted(self._series)

    def series(self, name: str) -> Optional[TimeSeries]:
        return self._series.get(name)

    def kind(self, name: str) -> Optional[str]:
        series = self._series.get(name)
        return series.kind if series is not None else None

    # -- recording ---------------------------------------------------

    def inc(self, name: str, n: float = 1.0) -> None:
        self._get(name, COUNTER).inc(self._clock(), n)

    def set_gauge(self, name: str, value: float) -> None:
        self._get(name, GAUGE).set(self._clock(), value)

    def observe(self, name: str, value: float, exemplar: Any = None) -> None:
        self._get(name, HISTOGRAM).observe(self._clock(), value, exemplar)

    # -- querying ----------------------------------------------------

    def _range(self, start: Optional[float],
               end: Optional[float]) -> Tuple[float, float]:
        if end is None:
            # past the newest bucket edge so in-progress buckets count
            end = self._clock() + self.bucket_width
        if start is None:
            start = -math.inf
        return start, end

    def query(self, name: str, fn: str = "points", *,
              start: Optional[float] = None, end: Optional[float] = None,
              q: float = 0.99) -> Any:
        """Range/instant query over one series.

        ``fn`` is one of:

        - ``points``: list of per-bucket dicts (counters/gauges carry
          ``value``; histograms carry count/mean/quantile/max).
        - ``sum``: total over the range (counter buckets add; histogram
          buckets contribute their counts).
        - ``quantile``: quantile ``q`` of the merged histogram.
        - ``instant``: the newest bucket (value, or quantile ``q``).
        """
        series = self._series.get(name)
        if series is None:
            raise KeyError(name)
        start, end = self._range(start, end)
        if fn == "points":
            out = []
            for t0, w, value in series.buckets_between(start, end):
                if series.kind == HISTOGRAM:
                    out.append({"t": t0, "width": w, "count": value.count,
                                "mean": value.mean,
                                "q": value.quantile(q), "max": value.maximum})
                else:
                    out.append({"t": t0, "width": w, "value": value})
            return out
        if fn == "sum":
            total = 0.0
            for _, _, value in series.buckets_between(start, end):
                total += value.count if series.kind == HISTOGRAM else value
            return total
        if fn == "quantile":
            if series.kind != HISTOGRAM:
                raise ValueError(f"series {name!r} is not a histogram")
            return series.merged_histogram(start, end).quantile(q)
        if fn == "instant":
            latest = series.latest()
            if latest is None:
                return None
            value = latest[1]
            return value.quantile(q) if series.kind == HISTOGRAM else value
        raise ValueError(f"unknown query fn: {fn!r}")

    def histogram_summary(self, name: str) -> Dict[str, float]:
        """Count, mean, p50/p90/p99 and max of every retained bucket."""
        series = self._series.get(name)
        if series is None or series.kind != HISTOGRAM:
            raise KeyError(name)
        merged = series.merged_histogram(*self._range(None, None))
        return {
            "count": merged.count,
            "mean": merged.mean,
            "p50": merged.quantile(0.50),
            "p90": merged.quantile(0.90),
            "p99": merged.quantile(0.99),
            "max": merged.maximum if merged.count else 0.0,
        }

    def histogram_cumulative(self, name: str,
                             ) -> Tuple[List[Tuple[float, int]], float, int]:
        """``(le_pairs, sum, count)`` of every retained bucket, for
        Prometheus exposition."""
        series = self._series.get(name)
        if series is None or series.kind != HISTOGRAM:
            raise KeyError(name)
        merged = series.merged_histogram(*self._range(None, None))
        return merged.cumulative(), merged.total, merged.count

    # -- fleet aggregation -------------------------------------------

    def merge_from(self, other: "TimeSeriesRegistry") -> "TimeSeriesRegistry":
        for name, series in other._series.items():
            mine = self._series.get(name)
            if mine is None:
                self._series[name] = TimeSeries.from_dict(series.to_dict())
            else:
                mine.merge_from(series)
        return self

    @classmethod
    def merged(cls, registries: Iterable["TimeSeriesRegistry"],
               clock: Optional[Callable[[], float]] = None,
               ) -> "TimeSeriesRegistry":
        """Fleet-wide registry: per-bucket sums, exact histogram merges.

        The result takes the sources' bucket width, so a series created
        on it later merges with theirs; sources of different widths
        cannot be merged and raise ``ValueError``.
        """
        registries = list(registries)
        widths = {registry.bucket_width for registry in registries}
        if len(widths) > 1:
            raise ValueError("cannot merge registries of different bucket "
                             f"widths {sorted(widths)}")
        if clock is None and registries:
            clock = registries[0]._clock
        out = cls(clock, bucket_width=(widths.pop() if widths
                                       else DEFAULT_BUCKET_WIDTH))
        for registry in registries:
            out.merge_from(registry)
        return out

    # -- snapshot / serialization ------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Cheap MetricsRegistry-compatible summary (no bucket dump)."""
        return {
            "series": len(self._series),
            "points": sum(s.points for s in self._series.values()),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "bucket_width": self.bucket_width,
            "time": self._clock(),
            "series": [self._series[name].to_dict()
                       for name in sorted(self._series)],
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "TimeSeriesRegistry":
        frozen = float(doc.get("time", 0.0))
        out = cls(clock=lambda: frozen,
                  bucket_width=doc.get("bucket_width", DEFAULT_BUCKET_WIDTH))
        for series_doc in doc["series"]:
            series = TimeSeries.from_dict(series_doc)
            out._series[series.name] = series
        return out


def to_chrome_counters(registry: TimeSeriesRegistry) -> List[Dict[str, Any]]:
    """Chrome trace-event counter tracks (``ph: "C"``) for every series,
    stamped in microseconds of simulated time.

    Load the output next to the span export in ``chrome://tracing`` /
    Perfetto.
    """
    events: List[Dict[str, Any]] = []
    for name in registry.names():
        series = registry.series(name)
        for t0, _, value in series.buckets_between(-math.inf, math.inf):
            if series.kind == HISTOGRAM:
                args = {"count": value.count,
                        "p99": value.quantile(0.99)}
            else:
                args = {"value": value}
            events.append({"name": name, "ph": "C", "pid": 1, "tid": 1,
                           "ts": t0 * 1e6, "args": args})
    return events
