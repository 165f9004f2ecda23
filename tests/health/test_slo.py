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


def burn(engine, window, name="err"):
    """The spec's burn rate over its 1 s or 2 s window, read where the
    program reads it: ``compliance()``'s ``burn_fast`` (the fast pair's
    short window) or ``burn_slow`` (the slow pair's)."""
    report = engine.compliance()[name]
    return {1.0: report["burn_fast"], 2.0: report["burn_slow"]}[window]


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
        assert burn(engine, 1.0) == 0.0

        # t=1: 10 more, 5 of them bad -> window(1s) = 5/10 bad = 0.5
        # fraction; burn = 0.5 / 0.1 budget = 5.0
        clock.now = 1.0
        source.add(5, bad=5)
        engine.observe()
        assert burn(engine, 1.0) == pytest.approx(5.0)
        # window(2s) spans both samples: 15/20 requests, 5 bad ->
        # 0.25 fraction -> burn 2.5... edge is the t=0 sample, so the
        # deltas are total=10, bad=5 -> 0.5 -> 5.0
        assert burn(engine, 2.0) == pytest.approx(5.0)

        # t=2: 10 good requests -> window(1s) deltas from t=1 sample:
        # total=10, bad=0 -> burn 0
        clock.now = 2.0
        source.add(10)
        engine.observe()
        assert burn(engine, 1.0) == 0.0
        # window(2s): edge = t=0 sample -> deltas total 20, bad 5 ->
        # fraction 0.25 -> burn 2.5
        assert burn(engine, 2.0) == pytest.approx(2.5)

    def test_empty_and_zero_total(self):
        clock, engine, source = make_engine()
        assert burn(engine, 1.0) == 0.0
        engine.observe()  # total 0
        assert burn(engine, 1.0) == 0.0


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
        assert burn(engine, 1.0, "lat") == pytest.approx(2.0)
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


class DequeReference:
    """The window rule, kept apart from the engine: cumulative
    ``(t, total, bad)`` samples in a deque that is never trimmed, a
    window's delta taken against the last sample at or before its left
    edge."""

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


def run_against_reference(period, start=0.0, until=1000.0):
    """Tick an engine and the reference every ``period`` sim-seconds from
    ``start`` to ``until``: bad bursts, and between 600 and 640 s a slow
    leak that only the ticket pair catches.  Returns the engine's alert
    records and the reference's, checking on every tick that the engine
    holds at most longest ÷ period + 2 samples."""
    import random

    clock = Clock()
    engine = SLOEngine(clock=clock, log=AlertLog(max_events=10_000))
    source = Source()
    spec = engine.add(SLOSpec("err", objective=0.99), source)
    reference = DequeReference(spec)
    _spec, _fn, held = engine._specs["err"]
    bursts = [(20, 26), (58, 70), (186, 198), (440, 455), (952, 968)]
    rng = random.Random(15)
    tick = 0
    while start + tick * period < until:
        now = clock.now = start + tick * period
        bad = 0
        if any(lo <= now < hi for lo, hi in bursts):
            bad = rng.randint(0, 12)
        elif 600 <= now < 640:
            bad = rng.random() < 0.3
        source.add(rng.randint(5, 20), bad=bad)
        engine.observe()
        reference.observe(now, source.total, source.bad)
        assert len(held) <= spec.longest / period + 2
        tick += 1
    records = [a.to_record() for a in engine.log.history()]
    assert records == reference.records
    severities = {r["severity"] for r in records}
    assert severities == {SEVERITY_PAGE, SEVERITY_TICKET}
    assert len(records) >= 2 * len(bursts)
    assert all(r["resolved_at"] is not None for r in records)
    return records


def test_long_run_alert_log_matches_the_sample_deque_exactly():
    """2 000 ticks of 0.5 s from 0 (1 000 sim-s): fire/resolve times and
    both burn rates equal the untrimmed deque's arithmetic bit for bit."""
    run_against_reference(0.5)


@pytest.mark.parametrize("period, start", [(0.3, 0.0), (0.25, 7.13)],
                         ids=["0.3s-ticks", "0.25s-ticks-from-7.13"])
def test_alert_log_matches_the_sample_deque_at_any_period_and_phase(
        period, start):
    """No tick lands on a round instant: a period that divides no window
    edge, and a heartbeat started at a restart instant."""
    run_against_reference(period, start)
