"""The time-series telemetry store: log-bucket histograms, ring
retention, range queries, and exact fleet-wide merges."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import TimeSeriesRegistry, to_chrome_counters
from repro.obs.timeseries import (BUCKETS_PER_OCTAVE, RING_BUCKETS,
                                   LogHistogram, TimeSeries)

#: one log bucket spans a 2^(1/8) ratio, so any boundary readout is
#: within this factor of the exact sample value
GROWTH = 2.0 ** (1.0 / BUCKETS_PER_OCTAVE)


def hist_key(h):
    """Everything exact about a histogram (total is a float sum, whose
    last ulp can depend on merge order — deliberately excluded)."""
    return (h.count, h.zero, h.minimum, h.maximum,
            tuple(sorted(h.buckets.items())))


class TestLogHistogram:
    def test_exact_aggregates(self):
        h = LogHistogram()
        values = [0.001, 0.5, 2.0, 2.0, 150.0]
        for v in values:
            h.add(v)
        assert h.count == 5
        assert h.total == pytest.approx(sum(values))
        assert h.minimum == 0.001
        assert h.maximum == 150.0
        assert h.mean == pytest.approx(sum(values) / 5)

    def test_zero_and_negative_land_in_zero_bucket(self):
        h = LogHistogram()
        h.add(0.0)
        h.add(-3.0)
        h.add(1.0)
        assert h.zero == 2
        assert h.quantile(0.5) == 0.0  # rank 2 of 3 is in the zero bucket
        assert h.minimum == -3.0

    def test_quantile_within_one_bucket_of_truth(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(5000)]
        h = LogHistogram()
        for v in values:
            h.add(v)
        values.sort()
        for q in (0.50, 0.90, 0.99):
            exact = values[max(0, math.ceil(q * len(values)) - 1)]
            approx = h.quantile(q)
            assert exact / GROWTH <= approx <= exact * GROWTH

    def test_quantile_clamped_to_extrema(self):
        h = LogHistogram()
        h.add(10.0)
        assert h.quantile(0.5) == 10.0
        assert h.quantile(1.0) == 10.0
        assert LogHistogram().quantile(0.5) == 0.0

    def test_merge_identity_200_servers(self):
        """Merged quantiles are identical to one combined histogram —
        the E13 fleet-aggregation guarantee, for 200 per-server streams
        merged in any order."""
        rng = random.Random(13)
        per_server = [[rng.expovariate(1.0 / 0.05) for _ in range(50)]
                      for _ in range(200)]
        combined = LogHistogram()
        for values in per_server:
            for v in values:
                combined.add(v)
        hists = []
        for values in per_server:
            h = LogHistogram()
            for v in values:
                h.add(v)
            hists.append(h)
        rng.shuffle(hists)
        merged = LogHistogram()
        for h in hists:
            merged.merge(h)
        assert hist_key(merged) == hist_key(combined)
        for q in (0.5, 0.9, 0.99, 0.999):
            assert merged.quantile(q) == combined.quantile(q)

    def test_merge_keeps_max_exemplar(self):
        a, b = LogHistogram(), LogHistogram()
        a.add(1.0, exemplar=3)
        b.add(1.0, exemplar=9)
        ab = a.copy().merge(b)
        ba = b.copy().merge(a)
        assert hist_key(ab) == hist_key(ba)
        index = LogHistogram.bucket_index(1.0)
        assert ab.exemplars[index] == ba.exemplars[index] == 9

    def test_cumulative_ends_at_inf_total(self):
        h = LogHistogram()
        for v in (0.0, 0.1, 0.2, 5.0):
            h.add(v)
        pairs = h.cumulative()
        assert pairs[0] == (0.0, 1)  # the zero bucket
        assert pairs[-1] == (math.inf, 4)
        counts = [c for _, c in pairs]
        assert counts == sorted(counts)

    def test_dict_round_trip(self):
        h = LogHistogram()
        for i, v in enumerate((0.0, 0.5, 1.5, 20.0)):
            h.add(v, exemplar=i)
        back = LogHistogram.from_dict(h.to_dict())
        assert hist_key(back) == hist_key(h)
        assert back.total == h.total
        assert back.exemplars == h.exemplars


@given(st.lists(st.floats(min_value=1e-9, max_value=1e9,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200),
       st.integers(min_value=2, max_value=5))
@settings(max_examples=50, deadline=None)
def test_merge_partition_invariance(values, n_parts):
    """Any partition of the sample stream merges back to the same
    histogram (hypothesis over values and split count)."""
    combined = LogHistogram()
    for v in values:
        combined.add(v)
    parts = [LogHistogram() for _ in range(n_parts)]
    for i, v in enumerate(values):
        parts[i % n_parts].add(v)
    merged = LogHistogram()
    for part in reversed(parts):
        merged.merge(part)
    assert hist_key(merged) == hist_key(combined)
    assert merged.quantile(0.99) == combined.quantile(0.99)


RECORD = {"counter": "inc", "gauge": "set", "histogram": "observe"}


def expected_bucket(kind, values):
    """What one bucket holds after ``values`` were recorded into it."""
    if kind == "counter":
        return sum(values)
    if kind == "gauge":
        return values[-1]
    hist = LogHistogram()
    for v in values:
        hist.add(v)
    return hist.to_dict()


def plain(kind, value):
    return value.to_dict() if kind == "histogram" else value


@pytest.mark.parametrize("kind", sorted(RECORD))
def test_the_ring_keeps_the_newest_buckets_exactly(kind):
    """Three rings' worth of buckets, 1–3 points each: the newest
    ``RING_BUCKETS`` survive with the values an unbounded reference
    holds, ``points`` counts every observation, and a range read, a
    dump round trip and a reload of a dump with shuffled keys all agree
    with the reference."""
    width = 0.5
    series = TimeSeries("s", kind, width=width)
    record = getattr(series, RECORD[kind])
    reference = {}  # bucket index -> every value recorded into it
    for k in range(3 * RING_BUCKETS):
        for j in range(1 + k % 3):
            value = float(1 + (7 * k + j) % 11)
            record((k + j / 4) * width, value)
            reference.setdefault(k, []).append(value)
    kept = list(range(2 * RING_BUCKETS, 3 * RING_BUCKETS))
    assert list(series.buckets) == kept
    assert {k: plain(kind, v) for k, v in series.buckets.items()} == {
        k: expected_bucket(kind, reference[k]) for k in kept}
    assert series.points == sum(len(values) for values in reference.values())

    start, end = (kept[0] + 10.5) * width, (kept[-1] - 20) * width
    assert [(t0, w, plain(kind, v))
            for t0, w, v in series.buckets_between(start, end)] == [
        (k * width, width, expected_bucket(kind, reference[k]))
        for k in kept if (k + 1) * width > start and k * width < end]

    doc = series.to_dict()
    assert TimeSeries.from_dict(doc).to_dict() == doc
    items = list(doc["buckets"].items())
    random.Random(kind).shuffle(items)
    doc["buckets"] = dict(items)
    reloaded = TimeSeries.from_dict(doc)
    assert list(reloaded.buckets) == kept
    assert reloaded.to_dict() == series.to_dict()

    with pytest.raises(ValueError, match="behind the newest"):
        record((kept[0] - 1) * width, 1.0)
    assert list(series.buckets) == kept
    assert series.points == sum(len(values) for values in reference.values())
    record((kept[-1] + 2) * width, 1.0)  # leaves one bucket empty
    with pytest.raises(ValueError, match="behind the newest"):
        record((kept[-1] + 1) * width, 1.0)


def test_a_merge_or_a_reload_keeps_the_newest_ring():
    """Two servers' rings that together span two rings' worth of
    buckets merge into the newest ``RING_BUCKETS``; so does a dump
    from outside that holds more."""
    old, new = (TimeSeries("c", "counter", width=1.0) for _ in range(2))
    for k in range(RING_BUCKETS):
        old.inc(float(k))
        new.inc(float(RING_BUCKETS + k), 2.0)
    merged = TimeSeries("c", "counter", width=1.0).merge_from(old)
    merged.merge_from(new)
    assert merged.buckets == new.buckets
    assert merged.points == 2 * RING_BUCKETS
    doc = old.to_dict()
    doc["buckets"].update(new.to_dict()["buckets"])
    assert TimeSeries.from_dict(doc).buckets == new.buckets


class TestRegistryQueries:
    def make(self, width=1.0):
        clock = {"now": 0.0}
        reg = TimeSeriesRegistry(clock=lambda: clock["now"],
                                 bucket_width=width)
        return reg, clock

    def test_counter_points_and_sum(self):
        reg, clock = self.make()
        for now in (0.0, 0.5, 1.0, 2.25):
            clock["now"] = now
            reg.inc("reqs")
        points = reg.query("reqs", "points")
        assert [(p["t"], p["value"]) for p in points] == [
            (0.0, 2.0), (1.0, 1.0), (2.0, 1.0)]
        assert reg.query("reqs", "sum") == 4.0
        assert reg.query("reqs", "sum", start=1.0) == 2.0
        assert reg.query("reqs", "instant") == 1.0

    def test_histogram_quantile_and_instant(self):
        reg, clock = self.make()
        for i in range(100):
            clock["now"] = i * 0.1
            reg.observe("lat", 0.010 if i < 99 else 1.0)
        q99 = reg.query("lat", "quantile", q=0.99)
        assert 0.010 / GROWTH <= q99 <= 0.010 * GROWTH
        assert reg.query("lat", "quantile", q=1.0) == 1.0
        points = reg.query("lat", "points", q=0.5)
        assert sum(p["count"] for p in points) == 100

    def test_gauge_instant_is_latest(self):
        reg, clock = self.make()
        reg.set_gauge("healthy", 3)
        clock["now"] = 5.0
        reg.set_gauge("healthy", 2)
        assert reg.query("healthy", "instant") == 2

    def test_unknown_series_and_bad_fn(self):
        reg, _ = self.make()
        with pytest.raises(KeyError):
            reg.query("nope")
        reg.inc("c")
        with pytest.raises(ValueError):
            reg.query("c", "quantile")
        with pytest.raises(ValueError):
            reg.query("c", "median")
        with pytest.raises(ValueError):
            reg.observe("c", 1.0)  # kind mismatch

    def test_exemplars_surface_through_registry(self):
        reg, clock = self.make()
        reg.observe("lat", 0.05, exemplar="span-1")
        clock["now"] = 3.0
        reg.observe("lat", 0.05, exemplar="span-9")
        (doc,) = reg.to_dict()["series"]
        per_bucket = [hist["exemplars"] for hist in doc["buckets"].values()]
        # each time bucket keeps its own; the export carries them all
        assert [list(ex.values()) for ex in per_bucket] == [["span-1"],
                                                            ["span-9"]]
        merged = TimeSeries.from_dict(doc).merged_histogram(-math.inf,
                                                            math.inf)
        assert list(merged.exemplars.values()) == ["span-9"]


class TestFleetMerge:
    def test_merged_equals_single_recorder(self):
        rng = random.Random(29)
        clock = {"now": 0.0}
        servers = [TimeSeriesRegistry(clock=lambda: clock["now"],
                                      bucket_width=1.0) for _ in range(20)]
        single = TimeSeriesRegistry(clock=lambda: clock["now"],
                                    bucket_width=1.0)
        # the sim clock only moves forward
        for now in sorted(rng.uniform(0.0, 50.0) for _ in range(2000)):
            clock["now"] = now
            server = rng.choice(servers)
            v = rng.expovariate(10.0)
            server.inc("reqs")
            server.observe("lat", v)
            single.inc("reqs")
            single.observe("lat", v)
        clock["now"] = 50.0
        merged = TimeSeriesRegistry.merged(servers)
        assert merged.names() == single.names()
        assert merged.query("reqs", "sum") == single.query("reqs", "sum")
        for q in (0.5, 0.9, 0.99):
            assert (merged.query("lat", "quantile", q=q)
                    == single.query("lat", "quantile", q=q))
        assert (merged.histogram_summary("lat")["count"]
                == single.histogram_summary("lat")["count"])

    def test_merge_rejects_mismatched_series(self):
        a = TimeSeriesRegistry(bucket_width=1.0)
        b = TimeSeriesRegistry(bucket_width=0.5)
        a.inc("c")
        b.inc("c")
        with pytest.raises(ValueError):
            a.merge_from(b)

    def test_merged_registry_keeps_the_sources_bucket_width(self):
        # merged() used to build a default-width (0.25) registry over
        # width-1.0 series: the dump header lied, and a series created on
        # the result could not be merged with its own sources
        clock = {"now": 3.0}
        a, b = (TimeSeriesRegistry(clock=lambda: clock["now"],
                                   bucket_width=1.0) for _ in range(2))
        a.inc("reqs")
        merged = TimeSeriesRegistry.merged([a, b])
        assert merged.bucket_width == 1.0
        assert merged.to_dict()["bucket_width"] == 1.0
        merged.inc("late")
        b.inc("late")
        merged.merge_from(b)
        assert merged.query("late", "sum") == 2

    def test_merged_rejects_mixed_bucket_widths_up_front(self):
        a = TimeSeriesRegistry(bucket_width=1.0)
        b = TimeSeriesRegistry(bucket_width=0.5)  # no series in common
        a.inc("only_a")
        b.inc("only_b")
        with pytest.raises(ValueError, match="bucket widths"):
            TimeSeriesRegistry.merged([a, b])

    def test_merge_does_not_alias_source_histograms(self):
        a = TimeSeriesRegistry(bucket_width=1.0)
        a.observe("lat", 0.1)
        merged = TimeSeriesRegistry.merged([a])
        merged.observe("lat", 9.0)
        assert a.histogram_summary("lat")["count"] == 1


class TestSerialization:
    def test_registry_round_trip_is_exact(self):
        clock = {"now": 0.0}
        reg = TimeSeriesRegistry(clock=lambda: clock["now"],
                                 bucket_width=0.5)
        for i in range(50):
            clock["now"] = i * 0.3
            reg.inc("reqs")
            reg.observe("lat", 0.01 * (1 + i % 5), exemplar=i)
            reg.set_gauge("healthy", i % 3)
        doc = reg.to_dict()
        reloaded = TimeSeriesRegistry.from_dict(doc)
        assert reloaded.to_dict() == doc
        assert reloaded.names() == reg.names()
        assert (reloaded.query("lat", "quantile", q=0.99)
                == reg.query("lat", "quantile", q=0.99))
        assert reloaded.snapshot() == reg.snapshot()

    def test_chrome_counter_export(self):
        reg = TimeSeriesRegistry(bucket_width=1.0)
        reg.inc("reqs", 3)
        reg.observe("lat", 0.25)
        events = to_chrome_counters(reg)
        assert all(e["ph"] == "C" for e in events)
        by_name = {e["name"]: e for e in events}
        assert by_name["reqs"]["args"] == {"value": 3.0}
        assert by_name["lat"]["args"]["count"] == 1
        assert by_name["reqs"]["ts"] == 0.0


# -- the ordering invariant ---------------------------------------------

SERIES_OPS = {"c": "inc", "g": "set_gauge", "h": "observe"}


def assert_ordered_and_consistent(reg, cutoffs):
    """Each ring's keys ascend, and the reads that lean on that equal a
    fold over all buckets."""
    for name in reg.names():
        series = reg.series(name)
        keys = list(series.buckets)
        assert all(a < b for a, b in zip(keys, keys[1:])), (name, keys)
        assert len(keys) <= RING_BUCKETS
        buckets = [(index * series.width, value)
                   for index, value in series.buckets.items()]
        newest = max(buckets, key=lambda item: item[0], default=None)
        assert series.latest() == newest
        for cutoff in cutoffs:
            if series.kind != "gauge":
                expected = sum(
                    v.count if series.kind == "histogram" else v
                    for t0, v in buckets
                    if t0 < cutoff + 7.0 and t0 + series.width > cutoff)
                assert reg.query(name, "sum", start=cutoff,
                                 end=cutoff + 7.0) == expected


@given(st.lists(st.tuples(st.sampled_from(sorted(SERIES_OPS)),
                          # the sim clock stands still or moves forward,
                          # now and then past a whole ring
                          st.sampled_from([0, 0, 1, 1, 2, 5, 9, 300]),
                          st.integers(min_value=1, max_value=5),
                          st.integers(min_value=0, max_value=2)),
                min_size=1, max_size=120),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_ring_keys_stay_ascending_and_reads_match_brute_force(ops, rng):
    """Interleaved inc / set_gauge / observe, fleet merges in shuffled
    order and a dump round trip with shuffled keys all keep every ring's
    keys strictly ascending and within budget; ``latest`` and
    ``query(..., "sum")`` agree with a fold over every bucket."""
    clock = {"now": 10.0}

    def make():
        return TimeSeriesRegistry(clock=lambda: clock["now"],
                                  bucket_width=0.5)

    single, parts = make(), [make() for _ in range(3)]
    for name, step, value, part in ops:
        clock["now"] += step * 0.25
        for reg in (single, parts[part]):
            getattr(reg, SERIES_OPS[name])(name, float(value))
    cutoffs = [clock["now"] - w for w in (0.0, 0.5, 2.0, 5.0, 40.0)]
    assert_ordered_and_consistent(single, cutoffs)

    rng.shuffle(parts)
    fleet = make()
    for part in parts:
        fleet.merge_from(part)
    assert_ordered_and_consistent(fleet, cutoffs)

    doc = fleet.to_dict()
    for series_doc in doc["series"]:  # a dump whose keys lost their order
        items = list(series_doc["buckets"].items())
        rng.shuffle(items)
        series_doc["buckets"] = dict(items)
    reloaded = TimeSeriesRegistry.from_dict(doc)
    assert_ordered_and_consistent(reloaded, cutoffs)
    assert reloaded.to_dict() == fleet.to_dict()
