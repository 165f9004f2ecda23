"""Reservoir: bounded memory with exact aggregates (the fix for the
unbounded collector growth in PipelineMetrics / FederationMetrics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import FederationMetrics, PipelineMetrics, Reservoir


def test_exact_aggregates_survive_subsampling():
    res = Reservoir(capacity=64)
    n = 10_000
    for i in range(n):
        res.add(float(i))
    assert res.count == n
    assert len(res) == 64  # memory bounded at capacity
    assert res.mean == sum(range(n)) / n
    assert res.minimum == 0.0
    assert res.maximum == float(n - 1)
    stats = res.stats()
    assert stats.count == n
    assert stats.mean == res.mean
    assert stats.minimum == 0.0 and stats.maximum == float(n - 1)
    # sampled percentiles are estimates, but land in the right region
    assert 0.0 < stats.p50 < n
    assert stats.p50 <= stats.p90 <= stats.p99 <= stats.maximum


def test_reservoir_is_deterministic():
    def fill():
        res = Reservoir(capacity=16)
        for i in range(1000):
            res.add(float(i % 37))
        return list(res._samples)

    assert fill() == fill()


def test_empty_and_small_reservoirs():
    res = Reservoir()
    assert res.stats().count == 0
    assert res.mean == 0.0
    res.add(2.5)
    stats = res.stats()
    assert stats.count == 1
    assert stats.mean == stats.minimum == stats.maximum == 2.5


def test_merge_composes_aggregates_exactly():
    a, b = Reservoir(capacity=64), Reservoir(capacity=64)
    for i in range(1000):
        a.add(float(i))
    for i in range(500):
        b.add(float(i) + 2000.0)
    a.merge(b)
    assert a.count == 1500
    assert a.mean == (sum(range(1000)) + sum(i + 2000.0
                                             for i in range(500))) / 1500
    assert a.minimum == 0.0
    assert a.maximum == 2499.0
    assert len(a) <= 64  # memory still bounded after the merge


def test_merge_small_reservoirs_concatenates():
    a, b = Reservoir(capacity=64), Reservoir(capacity=64)
    for v in (1.0, 2.0):
        a.add(v)
    b.add(10.0)
    a.merge(b)
    assert sorted(a._samples) == [1.0, 2.0, 10.0]
    assert a.count == 3


def test_merge_with_empty_is_identity():
    a = Reservoir(capacity=8)
    for i in range(100):
        a.add(float(i))
    before = (a.count, a.total, a.minimum, a.maximum, list(a._samples))
    a.merge(Reservoir(capacity=8))
    assert (a.count, a.total, a.minimum, a.maximum, list(a._samples)) == before
    b = Reservoir(capacity=8)
    b.merge(a)
    assert (b.count, b.total, b.minimum, b.maximum) == before[:4]


def test_merge_sample_share_is_traffic_weighted():
    # one side saw 9x the traffic: it keeps ~90% of the merged slots
    a, b = Reservoir(capacity=100), Reservoir(capacity=100)
    for i in range(9000):
        a.add(0.0)
    for i in range(1000):
        b.add(1.0)
    a.merge(b)
    kept_b = sum(1 for v in a._samples if v == 1.0)
    assert len(a) == 100
    assert kept_b == 10


def test_merge_draws_each_share_from_the_whole_side():
    # neither side filled, so each is in arrival order: a share cut off
    # the front would keep only each side's earliest (here smallest) half
    a, b = Reservoir(capacity=100), Reservoir(capacity=100)
    for i in range(100):
        a.add(float(i))
    for i in range(100):
        b.add(1000.0 + i)
    a.merge(b)
    kept = list(a._samples)
    mine = [v for v in kept if v < 1000.0]
    theirs = [v - 1000.0 for v in kept if v >= 1000.0]
    assert len(mine) == len(theirs) == 50
    assert max(mine) >= 50.0 and max(theirs) >= 50.0


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=0, max_size=300),
       st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=0, max_size=300))
@settings(max_examples=50, deadline=None)
def test_merge_aggregates_match_single_stream(xs, ys):
    merged = Reservoir(capacity=32)
    for v in xs:
        merged.add(v)
    other = Reservoir(capacity=32)
    for v in ys:
        other.add(v)
    merged.merge(other)
    single = Reservoir(capacity=32)
    for v in xs + ys:
        single.add(v)
    assert merged.count == single.count
    assert merged.total == sum(xs) + sum(ys)
    if xs or ys:
        assert merged.minimum == min(xs + ys)
        assert merged.maximum == max(xs + ys)
    assert len(merged) <= 32


def test_percentile_is_the_summary_field_bit_for_bit():
    res = Reservoir(capacity=64)
    assert res.percentile(99) == res.stats().p99 == 0.0
    other = Reservoir(capacity=64)
    for i in range(300):
        other.add(float(i * i % 101))
    for i in range(500):
        res.add(0.001 * (i * 7919 % 257))
        if i % 50 == 0:
            assert res.percentile(99) == res.stats().p99
    res.merge(other)
    assert res.percentile(99) == res.stats().p99
    assert res.percentile(50) == res.stats().p50  # another percentile


def test_percentile_recomputed_only_when_count_moved(monkeypatch):
    """A reservoir never asked for a percentile keeps no ordered copy;
    one that was asked keeps it current through replacements, reads it
    without numpy, and re-reads only when ``count`` moved."""
    from repro.metrics import stats

    never_asked = Reservoir(capacity=16)
    for i in range(200):
        never_asked.add(float(i % 23))
    assert never_asked._ordered is None

    reads = []
    real = stats._linear_percentile
    monkeypatch.setattr(stats, "_linear_percentile",
                        lambda *a: reads.append(1) or real(*a))
    res = Reservoir(capacity=16)
    res.add(1.0)
    first = [res.percentile(99) for _ in range(5)]
    assert first == [1.0] * 5 and len(reads) == 1
    ordered = res._ordered

    def no_numpy(*_a, **_kw):
        raise AssertionError("np.percentile called")

    monkeypatch.setattr(stats.np, "percentile", no_numpy)
    for i in range(200):  # past capacity: slots are replaced
        res.add(0.01 * (i * 37 % 101))
        res.percentile(99)
    assert len(reads) == 1 + 200
    assert res._ordered is ordered == sorted(res._samples)
    value = res.percentile(99)
    monkeypatch.undo()
    assert value == res.stats().p99


PERCENTS = (0, 1, 37.5, 50, 90, 99, 99.9, 100)
latencies = st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                      allow_infinity=False).map(abs)  # never -0.0


@given(st.lists(st.one_of(
    st.tuples(st.just("add"), latencies),
    st.tuples(st.just("merge"), st.lists(latencies, max_size=12)),
    st.tuples(st.just("read"), st.sampled_from(PERCENTS))),
    max_size=120))
@settings(max_examples=200, deadline=None)
def test_ordered_copy_reads_numpy_percentile_bit_for_bit(ops):
    res = Reservoir(capacity=8)
    for op, arg in ops:
        if op == "add":
            res.add(arg)
        elif op == "merge":
            other = Reservoir(capacity=8, seed=len(arg))
            for v in arg:
                other.add(v)
            res.merge(other)
        else:
            res.percentile(arg)
        if res._ordered is not None:
            assert res._ordered == sorted(res._samples)
    for percent in PERCENTS:
        expected = (float(np.percentile(list(res._samples), percent))
                    if res.count else 0.0)
        assert res.percentile(percent) == expected
    assert res._ordered == sorted(res._samples)


@pytest.mark.parametrize("values", [
    [2.5],                                    # one sample
    [0.125] * 40,                             # all samples equal
    [0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 7.5],  # many duplicates
    [float(i) for i in range(101)],           # p lands on an index
    [0.1, 0.2, 0.3, 0.4, 0.5],                # 25% steps: on an index too
])
def test_percentile_edge_cases_match_numpy(values):
    res = Reservoir(capacity=len(values))
    assert res.percentile(99) == 0.0  # asked empty: every add is an insort
    for v in reversed(values):
        res.add(v)
    assert res._ordered == values
    for percent in PERCENTS + (25, 75):
        assert res.percentile(percent) == float(np.percentile(values,
                                                              percent))
    assert res.percentile(50) == res.stats().p50


def test_pipeline_metrics_single_percentile_matches_the_summary():
    metrics = PipelineMetrics()
    assert metrics.latency_percentile("http", 99) == 0.0  # no such plane
    for i in range(2000):
        metrics.observe("http", latency=1e-3 * (i * 31 % 97))
    assert (metrics.latency_percentile("http", 99)
            == metrics.latency_stats("http").p99)


def test_pipeline_metrics_latencies_are_bounded():
    metrics = PipelineMetrics()
    for i in range(5000):
        metrics.observe("http", latency=float(i) * 1e-3)
    assert metrics.requests("http") == 5000
    stats = metrics.latency_stats("http")
    assert stats.count == 5000  # exact despite sampling
    assert len(metrics._latencies["http"]) <= 1024
    assert metrics.latency_stats("missing").count == 0


def test_federation_metrics_staleness_is_bounded():
    metrics = FederationMetrics()
    reservoir = Reservoir()
    for i in range(5000):
        metrics.observe_staleness("app-1", float(i) * 1e-3)
        reservoir.add(float(i) * 1e-3)
    assert metrics._staleness == {"app-1": [5000, reservoir.total]}
    mean_ms = metrics.snapshot()["staleness_ms[app-1]"]
    assert mean_ms == pytest.approx(2499.5)
    # bit for bit the mean a reservoir of every sample reports
    assert mean_ms == reservoir.stats().scaled(1e3).mean
    assert "staleness_ms[other]" not in metrics.snapshot()
