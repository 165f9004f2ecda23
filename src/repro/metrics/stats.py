"""Summary statistics over latency samples."""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

#: default reservoir capacity — enough for stable p90/p99 estimates
DEFAULT_RESERVOIR_CAPACITY = 1024


@dataclass(frozen=True)
class SummaryStats:
    """Reduction of a sample set, in the units of the samples."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p90: float
    p99: float
    maximum: float

    def scaled(self, factor: float) -> "SummaryStats":
        """Same stats in different units (e.g. seconds → milliseconds)."""
        return SummaryStats(self.count, self.mean * factor,
                            self.std * factor, self.minimum * factor,
                            self.p50 * factor, self.p90 * factor,
                            self.p99 * factor, self.maximum * factor)


class Reservoir:
    """Bounded sample store: exact count/mean/min/max, sampled percentiles.

    Algorithm R reservoir sampling over a fixed capacity, so a collector
    fed by an arbitrarily long run keeps O(capacity) memory.  The exact
    aggregates (count, total → mean, minimum, maximum) are maintained over
    *every* observation; only the percentile estimates come from the
    sample.  Randomness is a private seeded :class:`random.Random` —
    it never touches the simulation's determinism, and two identical
    runs produce identical reservoirs.

    Once asked for a :meth:`percentile`, a reservoir keeps its samples
    in order too (a ``bisect`` delete and an ``insort`` per replaced
    slot); one never asked pays nothing.  Samples are finite latencies,
    differences of two ``sim.now`` values: never NaN, never -0.0, so a
    bisect finds the value a slot held.
    """

    __slots__ = ("capacity", "count", "total", "minimum", "maximum",
                 "_samples", "_ordered", "_rng", "_percentile_memo")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY,
                 seed: int = 0x5EED) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._samples: List[float] = []
        #: ``sorted(_samples)``, from the first percentile() on
        self._ordered: Optional[List[float]] = None
        self._rng = random.Random(seed)
        #: (percent, count when computed, value) of the last percentile()
        self._percentile_memo = (None, 0, 0.0)

    def add(self, value: float) -> None:
        """Observe one value."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        ordered = self._ordered
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            if ordered is not None:
                insort(ordered, value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                if ordered is not None:
                    del ordered[bisect_left(ordered, self._samples[slot])]
                    insort(ordered, value)
                self._samples[slot] = value

    def merge(self, other: "Reservoir") -> "Reservoir":
        """Fold another reservoir in without losing the tails.

        The exact aggregates compose exactly: count and total add (so
        the merged mean is the weighted mean), min/max take the extrema.
        The retained sample set is a deterministic capacity-bounded
        combination — when both sets fit they concatenate; otherwise
        each side keeps a share of slots proportional to its *observed*
        count, so the merged percentile estimate weights each source by
        how much traffic it actually saw.  Each share is drawn from its
        side with this reservoir's seeded RNG, not cut off the front: a
        side that never filled is in arrival order, and its first slots
        are its earliest values.  The ordered copy is dropped;
        the next :meth:`percentile` rebuilds it.
        """
        merged_count = self.count + other.count
        self.total += other.total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        if len(self._samples) + len(other._samples) <= self.capacity:
            self._samples.extend(other._samples)
        elif merged_count > 0:
            k_other = min(len(other._samples),
                          round(self.capacity * (other.count / merged_count)))
            k_self = min(len(self._samples), self.capacity - k_other)
            k_other = min(len(other._samples), self.capacity - k_self)
            draw = self._rng.sample
            self._samples = (draw(self._samples, k_self)
                             + draw(other._samples, k_other))
        self._ordered = None
        self.count = merged_count
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, percent: float) -> float:
        """One sampled percentile — ``stats().p99`` for ``percent=99``,
        bit for bit, without the rest of the summary (empty → 0.0).

        The first call sorts the samples into the ordered copy ``add``
        keeps current; a call after that interpolates two neighbours of
        it the way numpy's ``linear`` method does, so a periodic reader
        (the latency SLO, once per heartbeat) pays for the samples that
        changed, and nothing while ``count`` has not moved.
        """
        memo = self._percentile_memo
        if memo[0] != percent or memo[1] != self.count:
            ordered = self._ordered
            if ordered is None:
                ordered = self._ordered = sorted(self._samples)
            memo = self._percentile_memo = (
                percent, self.count, _linear_percentile(ordered, percent))
        return memo[2]

    def stats(self) -> SummaryStats:
        """Exact count/mean/min/max merged with sampled percentiles.

        Edge cases are pinned (tests/obs/test_accounting.py): **empty**
        → the all-zero :class:`SummaryStats` (count 0, minimum/maximum
        0.0 — never the internal ±inf sentinels); a **single**
        observation → every field is that value (std 0.0), exact and
        identical across all percentiles.
        """
        if self.count == 0:
            return summarize(())
        sampled = summarize(self._samples)
        return SummaryStats(count=self.count, mean=self.mean,
                            std=sampled.std, minimum=self.minimum,
                            p50=sampled.p50, p90=sampled.p90,
                            p99=sampled.p99, maximum=self.maximum)

    def __len__(self) -> int:
        return len(self._samples)


def _linear_percentile(ordered: List[float], percent: float) -> float:
    """``float(np.percentile(ordered, percent))`` of an ascending list,
    bit for bit (empty → 0.0): numpy's index ``(n - 1) * q`` and its
    ``_lerp``, which interpolates from the nearer neighbour."""
    n = len(ordered)
    if n == 0:
        return 0.0
    v = (n - 1) * (percent / 100)
    if v >= n - 1:
        return float(ordered[-1])
    i = int(v)
    t = v - i
    a, b = ordered[i], ordered[i + 1]
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1 - t)


def summarize(samples: Sequence[float]) -> SummaryStats:
    """Reduce ``samples`` to :class:`SummaryStats` (empty → all zeros)."""
    if len(samples) == 0:
        return SummaryStats(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    arr = np.asarray(samples, dtype=float)
    return SummaryStats(
        count=int(arr.size),
        mean=float(arr.mean()),
        std=float(arr.std()),
        minimum=float(arr.min()),
        p50=float(np.percentile(arr, 50)),
        p90=float(np.percentile(arr, 90)),
        p99=float(np.percentile(arr, 99)),
        maximum=float(arr.max()),
    )
