"""Tests for latency recording, throughput metering, and summaries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import LatencyRecorder, summarize
from repro.sim import Simulator


# ------------------------------- summarize ---------------------------------

def test_summarize_empty():
    s = summarize([])
    assert s.count == 0
    assert s.mean == 0.0
    assert s.maximum == 0.0


def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0, 4.0])
    assert s.count == 4
    assert s.mean == pytest.approx(2.5)
    assert s.minimum == 1.0
    assert s.maximum == 4.0
    assert s.p50 == pytest.approx(2.5)


def test_summarize_scaled():
    s = summarize([1.0, 3.0]).scaled(1000.0)
    assert s.mean == pytest.approx(2000.0)
    assert s.count == 2  # count untouched


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1,
                max_size=100))
def test_summary_invariants(samples):
    s = summarize(samples)
    tol = 1e-9 * max(1.0, abs(s.maximum))  # float summation slop
    assert s.minimum <= s.p50 <= s.p90 <= s.p99 <= s.maximum
    assert s.minimum - tol <= s.mean <= s.maximum + tol
    assert s.count == len(samples)


# ------------------------------- recorder -----------------------------------

def test_recorder_explicit_samples(sim):
    rec = LatencyRecorder(sim)
    rec.record("op", 0.5)
    rec.record("op", 1.5)
    assert rec.stats("op").mean == pytest.approx(1.0)
    assert rec.samples("op") == [0.5, 1.5]


def test_recorder_spans(sim):
    rec = LatencyRecorder(sim)

    def proc():
        rec.start("rtt", "a")
        yield sim.timeout(2.0)
        got = rec.stop("rtt", "a")
        assert got == pytest.approx(2.0)

    sim.spawn(proc())
    sim.run()
    assert rec.stats("rtt").count == 1


def test_recorder_stop_without_start(sim):
    rec = LatencyRecorder(sim)
    assert rec.stop("rtt", "ghost") is None


def test_recorder_concurrent_spans(sim):
    rec = LatencyRecorder(sim)

    def proc(key, duration):
        rec.start("rtt", key)
        yield sim.timeout(duration)
        rec.stop("rtt", key)

    sim.spawn(proc("a", 1.0))
    sim.spawn(proc("b", 3.0))
    sim.run()
    assert sorted(rec.samples("rtt")) == [pytest.approx(1.0),
                                          pytest.approx(3.0)]
