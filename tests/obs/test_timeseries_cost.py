"""What a range read, an eviction and an SLO evaluation cost follows the
window asked for, not the history retained — as counts of buckets read
and of samples held, with no timing (in the spirit of
tests/storage/test_snapshot_cost.py)."""

from repro.health import SLOEngine, SLOSpec
from repro.obs.timeseries import RING_BUCKETS, TimeSeries

WIDTH = 0.25


class CountingRing(dict):
    """A ring that counts every bucket an iteration hands out, forwards
    or backwards, over keys, values or items.  Keyed access (``get``,
    ``[]``, ``in``, ``del``) touches one bucket by construction and is
    not counted."""

    def __init__(self, reads, items=()):
        super().__init__(items)
        self.reads = reads  # one-element list

    def _counted(self, iterator):
        for item in iterator:
            self.reads[0] += 1
            yield item

    def __iter__(self):
        return self._counted(super().__iter__())

    def __reversed__(self):
        return self._counted(super().__reversed__())

    def keys(self):
        return _CountingView(self, super().keys())

    def values(self):
        return _CountingView(self, super().values())

    def items(self):
        return _CountingView(self, super().items())


class _CountingView:
    def __init__(self, ring, view):
        self._ring, self._view = ring, view

    def __iter__(self):
        return self._ring._counted(iter(self._view))

    def __reversed__(self):
        return self._ring._counted(reversed(self._view))


def count_reads(series):
    """Swap a counting ring in under the series; returns its counter."""
    reads = [0]
    series.buckets = CountingRing(reads, series.buckets.items())
    return reads


def counter_with_history(seconds):
    """A counter incremented every bucket width for ``seconds``."""
    series = TimeSeries("c", "counter", width=WIDTH)
    for k in range(int(seconds / WIDTH) + 1):
        series.inc(k * WIDTH)
    return series


def test_a_range_read_reads_the_range_not_the_history():
    window = 20.0
    for history in (10 * window, 100 * window):
        series = counter_with_history(history)
        assert len(series.buckets) == RING_BUCKETS  # the ring is full
        reads = count_reads(series)
        buckets = series.buckets_between(history - window, history + WIDTH)
        assert sum(value for _t0, _w, value in buckets) == window / WIDTH + 1
        # the range's buckets, plus the one the read stops at
        assert reads[0] <= window / WIDTH + 2


def test_evicting_a_bucket_reads_a_constant_number_of_keys():
    """Opening a bucket reads the newest key; dropping the oldest once
    the ring is full reads one more, however long the history."""
    short = counter_with_history(10 * WIDTH)  # the ring has room
    reads = count_reads(short)
    short.inc(11 * WIDTH)
    assert reads[0] == 1
    for seconds in (100.0, 1000.0):  # the ring is full
        series = counter_with_history(seconds)
        reads = count_reads(series)
        series.inc(seconds + WIDTH)
        assert reads[0] == 2
        assert len(series.buckets) == RING_BUCKETS


TICK = 0.5


def slo_samples_after(seconds):
    """Run an engine for ``seconds`` of ticks; the samples each spec holds."""
    clock = {"now": 0.0}
    engine = SLOEngine(clock=lambda: clock["now"])
    source = {"total": 0, "bad": 0}
    engine.add(SLOSpec("err"), lambda: (source["total"], source["bad"]))
    engine.add(SLOSpec("lat", kind="latency", threshold=0.5), lambda: 0.1)
    for k in range(int(seconds / TICK) + 1):
        clock["now"] = k * TICK
        source["total"] += 10
        source["bad"] += 1
        engine.observe()
    return {name: len(samples)
            for name, (_spec, _fn, samples) in engine._specs.items()}


def test_slo_evaluation_reads_the_same_at_100_and_at_1000_seconds():
    """An evaluation walks back over the samples a spec holds, and the
    engine drops those older than its longest window's edge: at most
    longest ÷ period + 2 of them (42 at the defaults), however long the
    server has been up."""
    bound = SLOSpec("x").longest / TICK + 2
    assert bound == 42
    short = slo_samples_after(100.0)
    assert short == slo_samples_after(1000.0)
    assert set(short) == {"err", "lat"}
    assert all(0 < held <= bound for held in short.values())
