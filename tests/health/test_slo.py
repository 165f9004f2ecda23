"""Burn-rate engine unit tests with hand-computed windows."""

import pytest

from repro.health import (
    Alert,
    AlertLog,
    SEVERITY_PAGE,
    SEVERITY_TICKET,
    SLOEngine,
    SLOSpec,
)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class Source:
    """Controllable cumulative (total, bad) counter pair."""

    def __init__(self):
        self.total = 0
        self.bad = 0

    def add(self, good: int, bad: int = 0):
        self.total += good + bad
        self.bad += bad

    def __call__(self):
        return self.total, self.bad


def make_engine():
    clock = Clock()
    engine = SLOEngine(clock=clock)
    source = Source()
    # budget = 0.1; page when both 1s and 2s windows burn >= 5x (i.e.
    # >= 50% bad); ticket when both 2s and 4s windows burn >= 2x (20% bad)
    spec = SLOSpec("err", objective=0.9,
                   fast=(1.0, 2.0, 5.0), slow=(2.0, 4.0, 2.0))
    engine.add(spec, source)
    return clock, engine, source


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SLOSpec("x", kind="throughput")

    def test_objective_bounds(self):
        with pytest.raises(ValueError):
            SLOSpec("x", objective=1.0)

    def test_latency_needs_threshold(self):
        with pytest.raises(ValueError):
            SLOSpec("x", kind="latency")

    def test_budget(self):
        assert SLOSpec("x", objective=0.999).budget == pytest.approx(0.001)

    def test_duplicate_registration(self):
        clock, engine, _src = make_engine()
        with pytest.raises(ValueError):
            engine.add(SLOSpec("err"), lambda: (0, 0))


class TestBurnRate:
    def test_hand_computed_windows(self):
        clock, engine, source = make_engine()
        # t=0: 10 good requests
        source.add(10)
        engine.observe()
        assert engine.burn_rate("err", 1.0) == 0.0

        # t=1: 10 more, 5 of them bad -> window(1s) = 5/10 bad = 0.5
        # fraction; burn = 0.5 / 0.1 budget = 5.0
        clock.now = 1.0
        source.add(5, bad=5)
        engine.observe()
        assert engine.burn_rate("err", 1.0) == pytest.approx(5.0)
        # window(2s) spans both samples: 15/20 requests, 5 bad ->
        # 0.25 fraction -> burn 2.5... edge is the t=0 sample, so the
        # deltas are total=10, bad=5 -> 0.5 -> 5.0
        assert engine.burn_rate("err", 2.0) == pytest.approx(5.0)

        # t=2: 10 good requests -> window(1s) deltas from t=1 sample:
        # total=10, bad=0 -> burn 0
        clock.now = 2.0
        source.add(10)
        engine.observe()
        assert engine.burn_rate("err", 1.0) == 0.0
        # window(2s): edge = t=0 sample -> deltas total 20, bad 5 ->
        # fraction 0.25 -> burn 2.5
        assert engine.burn_rate("err", 2.0) == pytest.approx(2.5)

    def test_empty_and_zero_total(self):
        clock, engine, source = make_engine()
        assert engine.burn_rate("err", 1.0) == 0.0
        engine.observe()  # total 0
        assert engine.burn_rate("err", 1.0) == 0.0


class TestAlerting:
    def test_page_fires_when_both_windows_burn(self):
        clock, engine, source = make_engine()
        source.add(10)
        engine.observe()
        clock.now = 1.0
        source.add(0, bad=10)  # 100% bad over the last second
        engine.observe()
        active = engine.log.active()
        assert [(a.slo, a.severity) for a in active] == [
            ("err", SEVERITY_PAGE), ("err", SEVERITY_TICKET)]
        page = active[0]
        assert page.fired_at == 1.0
        assert page.burn_short == pytest.approx(10.0)

    def test_alert_dedup_and_resolve(self):
        clock, engine, source = make_engine()
        source.add(10)
        engine.observe()
        clock.now = 1.0
        source.add(0, bad=10)
        engine.observe()
        clock.now = 1.5
        source.add(0, bad=5)
        engine.observe()  # still firing: dedup, no second Alert object
        assert engine.log.fired == 2  # page + ticket, once each
        assert engine.log.deduplicated >= 1
        # now a long quiet stretch clears every window
        for t in (3.0, 4.5, 6.0, 8.0):
            clock.now = t
            source.add(100)
            engine.observe()
        assert engine.log.active() == []
        assert engine.log.resolved == 2
        page = [a for a in engine.log.history()
                if a.severity == SEVERITY_PAGE][0]
        assert page.resolved_at is not None

    def test_exemplars_attached_at_fire_time(self):
        clock = Clock()
        engine = SLOEngine(clock=clock, exemplar_fn=lambda start: [7, 9])
        source = Source()
        engine.add(SLOSpec("err", objective=0.9,
                           fast=(1.0, 2.0, 5.0), slow=(2.0, 4.0, 2.0)),
                   source)
        source.add(10)
        engine.observe()
        clock.now = 1.0
        source.add(0, bad=10)
        engine.observe()
        assert engine.log.active()[0].exemplars == [7, 9]

    def test_exemplars_gathered_once_per_outage(self):
        """A pair that is already firing is deduplicated by the log, so
        the span-store walk behind ``exemplar_fn`` runs for the fire
        alone — not on each tick of the outage."""
        clock = Clock()
        calls = []
        engine = SLOEngine(clock=clock,
                           exemplar_fn=lambda start: calls.append(start) or [7])
        source = Source()
        # the slow pair's factor is out of reach: only the page fires
        engine.add(SLOSpec("err", objective=0.9,
                           fast=(1.0, 2.0, 5.0), slow=(2.0, 4.0, 1e9)),
                   source)
        source.add(10)
        engine.observe()
        for tick in range(1, 41):
            clock.now = tick * 0.5
            source.add(0, bad=10)
            engine.observe()
        assert len(calls) == 1
        assert engine.log.snapshot() == {"fired": 1, "resolved": 0,
                                         "active": 1, "deduplicated": 39}
        assert engine.log.active()[0].exemplars == [7]

    def test_latency_kind_counts_threshold_breaches(self):
        clock = Clock()
        engine = SLOEngine(clock=clock)
        p99 = [0.1]
        engine.add(SLOSpec("lat", kind="latency", objective=0.5,
                           threshold=0.5,
                           fast=(1.0, 2.0, 1.5), slow=(2.0, 4.0, 1.2)),
                   lambda: p99[0])
        engine.observe()
        clock.now = 1.0
        p99[0] = 2.0  # breach
        engine.observe()
        # window(1s): 1 obs, 1 bad -> fraction 1.0 / budget 0.5 = 2.0
        assert engine.burn_rate("lat", 1.0) == pytest.approx(2.0)
        assert engine.log.active()  # both pairs over their factors

    def test_compliance_report(self):
        clock, engine, source = make_engine()
        source.add(8, bad=2)
        engine.observe()
        report = engine.compliance()["err"]
        assert report["sli"] == pytest.approx(1.0)  # single sample: no delta
        clock.now = 1.0
        source.add(8, bad=2)
        engine.observe()
        report = engine.compliance()["err"]
        assert report["sli"] == pytest.approx(0.8)
        assert not report["compliant"]


class TestAlertLog:
    def test_trim_keeps_active(self):
        log = AlertLog(max_events=2)
        log.fire("a", SEVERITY_PAGE, 1.0, burn_short=1, burn_long=1,
                 windows=(1, 2))
        log.resolve("a", SEVERITY_PAGE, 2.0)
        log.fire("b", SEVERITY_PAGE, 3.0, burn_short=1, burn_long=1,
                 windows=(1, 2))
        log.fire("c", SEVERITY_PAGE, 4.0, burn_short=1, burn_long=1,
                 windows=(1, 2))
        names = [a.slo for a in log.history()]
        assert "a" not in names  # resolved alert trimmed first
        assert set(names) == {"b", "c"}  # active ones never dropped

    def test_resolve_unknown_is_noop(self):
        log = AlertLog()
        assert log.resolve("ghost", SEVERITY_PAGE, 1.0) is None

    def test_to_record_roundtrips_json(self):
        import json
        alert = Alert("a", SEVERITY_PAGE, 1.0, burn_short=2.0,
                      burn_long=1.5, windows=(1.0, 5.0), exemplars=[3])
        record = json.loads(json.dumps(alert.to_record()))
        assert record["slo"] == "a"
        assert record["exemplars"] == [3]


class TestStoreBackedParity:
    """The engine's windows are *queries* over the shared time-series
    store; burn rates and page/ticket decisions must match what the raw
    bucket series hand-compute — and what the private-accumulator tests
    above established."""

    def make_store_engine(self):
        from repro.obs import TimeSeriesRegistry

        clock = Clock()
        ts = TimeSeriesRegistry(clock=clock, bucket_width=0.25)
        engine = SLOEngine(clock=clock, timeseries=ts)
        source = Source()
        spec = SLOSpec("err", objective=0.9,
                       fast=(1.0, 2.0, 5.0), slow=(2.0, 4.0, 2.0))
        engine.add(spec, source)
        return clock, engine, source, ts, spec

    def test_burn_rates_match_hand_computed_bucket_sums(self):
        clock, engine, source, ts, spec = self.make_store_engine()
        for t, good, bad in ((0.0, 10, 0), (1.0, 5, 5), (2.0, 10, 0)):
            clock.now = t
            source.add(good, bad=bad)
            engine.observe()

        def burn_from_buckets(window):
            cutoff = clock.now - window
            total = ts.window_sum("slo.err.total", cutoff)
            bad = ts.window_sum("slo.err.bad", cutoff)
            return (bad / total) / spec.budget if total else 0.0

        for window in (1.0, 2.0, 4.0):
            assert engine.burn_rate("err", window) == burn_from_buckets(window)
        # and the PR 5 hand-computed expectations still hold exactly
        assert engine.burn_rate("err", 1.0) == 0.0
        assert engine.burn_rate("err", 2.0) == pytest.approx(2.5)

    def test_decisions_match_synthetic_bucket_series(self):
        clock, engine, source, ts, spec = self.make_store_engine()
        source.add(10)
        engine.observe()
        clock.now = 1.0
        source.add(0, bad=10)
        engine.observe()

        # hand-evaluate the multi-window rule from the raw bucket dump
        totals = {p["t"]: p["value"]
                  for p in ts.query("slo.err.total", "points")}
        bads = {p["t"]: p["value"]
                for p in ts.query("slo.err.bad", "points")}

        def burn(window):
            total = sum(v for t, v in totals.items()
                        if t > clock.now - window)
            bad = sum(v for t, v in bads.items() if t > clock.now - window)
            return (bad / total) / spec.budget if total else 0.0

        page = (burn(spec.fast[0]) >= spec.fast[2]
                and burn(spec.fast[1]) >= spec.fast[2])
        ticket = (burn(spec.slow[0]) >= spec.slow[2]
                  and burn(spec.slow[1]) >= spec.slow[2])
        assert page and ticket
        assert [(a.slo, a.severity) for a in engine.log.active()] == [
            ("err", SEVERITY_PAGE), ("err", SEVERITY_TICKET)]
        assert engine.log.active()[0].burn_short == pytest.approx(10.0)

    def test_store_backed_engine_matches_private_engine_bitwise(self):
        """Same input stream -> identical burn rates and alert history,
        whether the engine writes to a shared fleet registry or its own
        private one."""
        clock_a, engine_a, source_a = make_engine()
        clock_b, engine_b, source_b, _ts, _spec = self.make_store_engine()
        schedule = [(0.0, 10, 0), (0.5, 3, 1), (1.0, 0, 10), (1.5, 0, 5),
                    (3.0, 100, 0), (4.5, 100, 0), (6.0, 100, 0),
                    (8.0, 100, 0)]
        for t, good, bad in schedule:
            for clock, engine, source in ((clock_a, engine_a, source_a),
                                          (clock_b, engine_b, source_b)):
                clock.now = t
                source.add(good, bad=bad)
                engine.observe()
            for window in (1.0, 2.0, 4.0):
                assert (engine_a.burn_rate("err", window)
                        == engine_b.burn_rate("err", window))
        hist_a = [a.to_record() for a in engine_a.log.history()]
        hist_b = [a.to_record() for a in engine_b.log.history()]
        assert hist_a == hist_b
        assert engine_a.compliance() == engine_b.compliance()


class DequeReference:
    """The private-accumulator engine the store replaced: cumulative
    ``(t, total, bad)`` samples in a deque, a window's delta taken
    against the last sample at or before its left edge."""

    def __init__(self, spec):
        from collections import deque
        self.spec = spec
        self.samples = deque()
        self.active = {}
        self.records = []

    def _burn(self, now, window):
        edge = self.samples[0]  # the baseline, until the window is full
        for sample in reversed(self.samples):
            if sample[0] <= now - window:
                edge = sample
                break
        total = self.samples[-1][1] - edge[1]
        bad = self.samples[-1][2] - edge[2]
        return (bad / total) / self.spec.budget if total > 0 else 0.0

    def observe(self, now, total, bad):
        self.samples.append((now, float(total), float(bad)))
        for severity, (short, long_, factor) in (
                (SEVERITY_PAGE, self.spec.fast),
                (SEVERITY_TICKET, self.spec.slow)):
            burn_short = self._burn(now, short)
            burn_long = self._burn(now, long_)
            record = self.active.get(severity)
            if burn_short >= factor and burn_long >= factor:
                if record is None:
                    record = self.active[severity] = {
                        "slo": self.spec.name, "severity": severity,
                        "fired_at": now, "resolved_at": None,
                        "burn_short": burn_short, "burn_long": burn_long,
                        "windows": [short, long_], "exemplars": []}
                    self.records.append(record)
            elif record is not None:
                record["resolved_at"] = now
                del self.active[severity]


def test_long_run_alert_log_matches_the_sample_deque_exactly():
    """2 000 ticks (1 000 sim-s, 15x the 64 s tier 0 keeps): buckets fold
    through every tier and finally drop, with bad bursts before and after
    each of those moments.  Fire/resolve times and both burn rates equal
    the deque arithmetic bit for bit."""
    import random

    clock = Clock()
    engine = SLOEngine(clock=clock, log=AlertLog(max_events=10_000))
    source = Source()
    spec = engine.add(SLOSpec("err", objective=0.99), source)
    reference = DequeReference(spec)
    # tier 0 starts folding at 64 s, tier 1 at 192 s, tier 2 at 448 s and
    # the coarsest tier drops from 960 s on; the 600 s stretch is a slow
    # leak that only the ticket pair catches
    bursts = [(20, 26), (58, 70), (186, 198), (440, 455), (952, 968)]
    rng = random.Random(15)
    for tick in range(2000):
        now = clock.now = tick * 0.5
        bad = 0
        if any(lo <= now < hi for lo, hi in bursts):
            bad = rng.randint(0, 12)
        elif 600 <= now < 640:
            bad = rng.random() < 0.3
        source.add(rng.randint(5, 20), bad=bad)
        engine.observe()
        reference.observe(now, source.total, source.bad)
    records = [a.to_record() for a in engine.log.history()]
    assert records == reference.records
    severities = {r["severity"] for r in records}
    assert severities == {SEVERITY_PAGE, SEVERITY_TICKET}
    assert len(records) >= 2 * len(bursts)
    assert all(r["resolved_at"] is not None for r in records)
