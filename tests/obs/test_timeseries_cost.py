"""What a window read, an eviction and an SLO evaluation cost follows the
window asked for, not the history retained — as counts of buckets read,
with no timing (in the spirit of tests/storage/test_snapshot_cost.py)."""

from repro.health import SLOEngine, SLOSpec
from repro.obs import TimeSeriesRegistry
from repro.obs.timeseries import TimeSeries

WIDTH = 0.25
N_TIERS = 4


class CountingTier(dict):
    """A tier that counts every bucket an iteration hands out, forwards
    or backwards, over keys, values or items.  Keyed access (``get``,
    ``[]``, ``in``, ``pop``) touches one bucket by construction and is
    not counted."""

    def __init__(self, reads, items=()):
        super().__init__(items)
        self.reads = reads  # one-element list shared by a series' tiers

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
    def __init__(self, tier, view):
        self._tier, self._view = tier, view

    def __iter__(self):
        return self._tier._counted(iter(self._view))

    def __reversed__(self):
        return self._tier._counted(reversed(self._view))


def count_reads(*series):
    """Swap counting tiers in under the series; returns their counter."""
    reads = [0]
    for one in series:
        one.tiers = [CountingTier(reads, tier.items()) for tier in one.tiers]
    return reads


def counter_with_history(seconds):
    """A counter incremented every bucket width for ``seconds``."""
    series = TimeSeries("c", "counter", width=WIDTH, n_tiers=N_TIERS)
    for k in range(int(seconds / WIDTH) + 1):
        series.inc(k * WIDTH)
    return series


def test_window_sum_reads_the_window_not_the_history():
    window = 20.0
    for history in (10 * window, 100 * window):
        series = counter_with_history(history)
        assert series.tiers[1]  # history reaches past tier 0
        reads = count_reads(series)
        assert series.window_sum(history - window) == window / WIDTH
        assert reads[0] <= window / WIDTH + N_TIERS


def test_evicting_a_bucket_reads_a_constant_number_of_keys():
    series = counter_with_history(1000.0)  # every tier full
    reads = count_reads(series)
    series.inc(1000.0 + WIDTH)  # a new bucket: tier 0 overflows
    # the oldest key of the overflowing tier and the newest of its parent
    assert 0 < reads[0] <= 2 * N_TIERS


TICK = 0.5
SLO_RING = 64  # buckets per tier: both tiers are full after 96 sim-s


def slo_reads_after(seconds):
    """Run an engine for ``seconds`` of ticks, then count the buckets
    one more ``observe()`` reads."""
    clock = {"now": 0.0}
    store = TimeSeriesRegistry(clock=lambda: clock["now"], bucket_width=WIDTH,
                               max_buckets=SLO_RING, n_tiers=2)
    engine = SLOEngine(clock=lambda: clock["now"], timeseries=store)
    source = {"total": 0, "bad": 0}
    engine.add(SLOSpec("err"), lambda: (source["total"], source["bad"]))
    engine.add(SLOSpec("lat", kind="latency", threshold=0.5), lambda: 0.1)

    def tick(k):
        clock["now"] = k * TICK
        source["total"] += 10
        source["bad"] += 1
        engine.observe()

    ticks = int(seconds / TICK)
    for k in range(ticks):
        tick(k)
    series = [store.series(name) for name in store.names()]
    assert all(len(tier) == SLO_RING for one in series for tier in one.tiers)
    reads = count_reads(*series)
    tick(ticks)
    return reads[0], len(series)


def test_slo_evaluation_reads_the_same_at_100_and_at_1000_seconds():
    short, n_series = slo_reads_after(100.0)
    long_, _ = slo_reads_after(1000.0)
    assert short == long_
    # per series: the tick's new bucket pushes one out of each full tier
    # (a few keys), then each distinct default window reads its own ticks
    # plus the bucket it stops at in either tier — the 5 s window, both
    # the page pair's long and the ticket pair's short one, is read once
    windows = (1.0, 5.0, 20.0)
    per_series = 4 + sum(w / TICK + 2 for w in windows)
    assert 0 < short <= n_series * per_series
    assert per_series < 2 * SLO_RING  # the all-buckets scan it replaces
