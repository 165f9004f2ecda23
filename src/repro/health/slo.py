"""Declarative SLOs, sliding-window burn rates, and the alert log.

An :class:`SLOSpec` states an objective over a service-level indicator —
``error_rate``: the fraction of failed requests stays under the error
budget (``1 - objective``); ``latency``: a latency quantile stays under
``threshold`` sim-seconds.  The :class:`SLOEngine` samples each spec's
cumulative counters on the monitor's heartbeat tick into a bounded deque
of ``(t, total, bad)`` samples of its own, and evaluates the classic
multi-window burn-rate rule (Google SRE workbook) over it: a window's
(total, bad) is the newest sample minus the last one at or before
``now - window`` (the first sample, a baseline, until the window has
filled).  That is exact for any heartbeat period and any phase — a
server restarted at an odd instant reads the same windows as one that
ticked from zero.  An alert fires when *both* the short and the long
window of a pair burn the error budget faster than the pair's factor,
and resolves when the pair clears.  Two pairs are evaluated per spec — a fast pair (page: short
outage, steep burn) and a slow pair (ticket: slow leak) — with window
lengths expressed in *sim* seconds so scenarios can compress "5m/1h"
into a tractable virtual run.

Alerts land in a bounded, deduplicating :class:`AlertLog`: an already
firing (spec, severity) pair never re-fires, fire/resolve transitions
are recorded with the burn rates that caused them, and each fire
captures *trace exemplars* — the trace ids of the worst error spans in
the window, via the span store the deployment's tracer already keeps —
so an alert links straight to a cross-server trace of the damage.

Like the rest of the health plane, evaluation is plain bookkeeping:
no events, no messages, no CPU charges.

What a tick costs the host: per spec, one sample appended (a latency
spec adds one call of its sample function — the monitor's default reads
the http reservoir's p99, which costs the samples that changed since the
last tick, not a sort of all 1 024) and, for each distinct window of its
two pairs (three with the defaults: 1, 5, 20 s), a walk back from the
newest sample to the window's edge.  Samples older than the edge of the
longest window are dropped, so a spec holds at most longest ÷ period + 2
of them however long the server has been up.  Trace exemplars (a walk
over the span store) are gathered when a pair starts firing, not while
it keeps firing.  tests/obs/test_timeseries_cost.py pins the retention,
tests/health/test_monitor.py the tick's reservoir read.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

#: default fast pair: (short window, long window, burn factor) — the
#: "page" rule; sim-seconds, scaled for runs tens of seconds long
DEFAULT_FAST = (1.0, 5.0, 10.0)
#: default slow pair — the "ticket" rule (slow leak)
DEFAULT_SLOW = (5.0, 20.0, 2.0)

#: alert severities, one per window pair
SEVERITY_PAGE = "page"
SEVERITY_TICKET = "ticket"

#: default alert-log retention (fire/resolve events)
DEFAULT_MAX_EVENTS = 256


class SLOSpec:
    """One declarative objective over a service-level indicator.

    ``kind="error_rate"``: the sample function returns cumulative
    ``(total, bad)`` request counts; the SLI is the good fraction.

    ``kind="latency"``: the sample function returns the current value of
    a latency quantile (e.g. a p99 estimate in sim-seconds); every
    evaluation tick contributes one good/bad observation — bad when the
    quantile exceeds ``threshold`` — so the same burn-rate machinery
    applies ("deliver_command p99 < X" becomes "the fraction of ticks
    over X stays within budget").
    """

    def __init__(self, name: str, *, kind: str = "error_rate",
                 objective: float = 0.999,
                 threshold: Optional[float] = None,
                 description: str = "",
                 fast: Tuple[float, float, float] = DEFAULT_FAST,
                 slow: Tuple[float, float, float] = DEFAULT_SLOW) -> None:
        if kind not in ("error_rate", "latency"):
            raise ValueError(f"unknown SLO kind {kind!r}")
        if not 0.0 < objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if kind == "latency" and threshold is None:
            raise ValueError("latency SLOs need a threshold")
        self.name = name
        self.kind = kind
        self.objective = objective
        self.threshold = threshold
        self.description = description
        #: (short, long, factor) window pairs
        self.fast = fast
        self.slow = slow

    @property
    def longest(self) -> float:
        """The widest window: the compliance window, and how much history
        the engine retains for the spec."""
        return max(self.fast[1], self.slow[1])

    @property
    def budget(self) -> float:
        """The error budget: tolerated bad fraction (``1 - objective``)."""
        return 1.0 - self.objective

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SLOSpec {self.name!r} {self.kind} {self.objective}>"


class Alert:
    """One fire→resolve lifecycle of a (spec, severity) pair."""

    __slots__ = ("slo", "severity", "fired_at", "resolved_at",
                 "burn_short", "burn_long", "windows", "exemplars")

    def __init__(self, slo: str, severity: str, fired_at: float, *,
                 burn_short: float, burn_long: float,
                 windows: Tuple[float, float],
                 exemplars: Optional[List[int]] = None) -> None:
        self.slo = slo
        self.severity = severity
        self.fired_at = fired_at
        self.resolved_at: Optional[float] = None
        self.burn_short = burn_short
        self.burn_long = burn_long
        self.windows = windows
        #: trace ids of the worst offending spans at fire time
        self.exemplars: List[int] = list(exemplars or ())

    @property
    def active(self) -> bool:
        return self.resolved_at is None

    def to_record(self) -> dict:
        """JSON-friendly dict (alert-log exports, CLI rendering)."""
        return {
            "slo": self.slo, "severity": self.severity,
            "fired_at": self.fired_at, "resolved_at": self.resolved_at,
            "burn_short": self.burn_short, "burn_long": self.burn_long,
            "windows": list(self.windows), "exemplars": self.exemplars,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "active" if self.active else f"resolved@{self.resolved_at}"
        return f"<Alert {self.slo}/{self.severity} {state}>"


class AlertLog:
    """Bounded, deduplicating record of alert lifecycles.

    One :class:`Alert` object spans fire→resolve; while a (spec,
    severity) pair is active, repeated firing conditions are deduplicated
    into the existing alert.  Retention is bounded: resolved alerts
    beyond ``max_events`` are dropped oldest-first (active alerts are
    never dropped).
    """

    def __init__(self, max_events: int = DEFAULT_MAX_EVENTS) -> None:
        self.max_events = max_events
        self._history: Deque[Alert] = deque()
        self._active: Dict[Tuple[str, str], Alert] = {}
        self.fired = 0
        self.resolved = 0
        #: firing conditions deduplicated into an already active alert
        self.deduplicated = 0

    def fire(self, slo: str, severity: str, now: float, *,
             burn_short: float, burn_long: float,
             windows: Tuple[float, float],
             exemplars: Optional[List[int]] = None) -> Alert:
        key = (slo, severity)
        alert = self._active.get(key)
        if alert is not None:
            self.deduplicated += 1
            return alert
        alert = Alert(slo, severity, now, burn_short=burn_short,
                      burn_long=burn_long, windows=windows,
                      exemplars=exemplars)
        self._active[key] = alert
        self._history.append(alert)
        self.fired += 1
        self._trim()
        return alert

    def resolve(self, slo: str, severity: str, now: float) -> Optional[Alert]:
        alert = self._active.pop((slo, severity), None)
        if alert is None:
            return None
        alert.resolved_at = now
        self.resolved += 1
        return alert

    def _trim(self) -> None:
        while len(self._history) > self.max_events:
            for i, alert in enumerate(self._history):
                if not alert.active:
                    del self._history[i]
                    break
            else:
                break  # everything active; never drop a live alert

    # -- queries -----------------------------------------------------------
    def is_active(self, slo: str, severity: str) -> bool:
        """Is this (spec, severity) pair firing right now?"""
        return (slo, severity) in self._active

    def active(self) -> List[Alert]:
        return [self._active[key] for key in sorted(self._active)]

    def history(self) -> List[Alert]:
        """Every retained alert, oldest first."""
        return list(self._history)

    def snapshot(self) -> dict:
        return {"fired": self.fired, "resolved": self.resolved,
                "active": len(self._active),
                "deduplicated": self.deduplicated}


#: one cumulative sample of a spec: (sim time, total, bad)
Sample = Tuple[float, float, float]


class SLOEngine:
    """Evaluates registered SLO specs over sliding windows of its own
    cumulative samples (see the module doc for the window rule)."""

    def __init__(self, *, clock: Callable[[], float],
                 log: Optional[AlertLog] = None,
                 exemplar_fn: Optional[Callable[[float], List[int]]] = None
                 ) -> None:
        self._clock = clock
        self.log = log if log is not None else AlertLog()
        #: ``exemplar_fn(window_start) -> [trace_id, ...]`` — supplied by
        #: the monitor, which can reach the deployment's span store
        self.exemplar_fn = exemplar_fn
        #: spec name → (spec, sample_fn, samples, oldest first)
        self._specs: Dict[str, Tuple[SLOSpec, Callable[[], Any],
                                     Deque[Sample]]] = {}

    def add(self, spec: SLOSpec, sample_fn: Callable[[], Any]) -> SLOSpec:
        """Register a spec with its cumulative-sample source."""
        if spec.name in self._specs:
            raise ValueError(f"SLO {spec.name!r} already registered")
        self._specs[spec.name] = (spec, sample_fn, deque())
        return spec

    # -- sampling ----------------------------------------------------------
    def observe(self) -> None:
        """Take one sample of every spec and re-evaluate its windows."""
        now = self._clock()
        for spec, sample_fn, samples in self._specs.values():
            if spec.kind == "error_rate":
                total, bad = sample_fn()
            else:
                # latency: one observation per tick, bad when over threshold
                value = sample_fn()
                _t, total, bad = samples[-1] if samples else (now, 0.0, 0.0)
                total += 1.0
                if value is not None and value > spec.threshold:
                    bad += 1.0
            samples.append((now, float(total), float(bad)))
            # keep the longest window's edge sample and everything after it
            horizon = now - spec.longest
            while len(samples) > 1 and samples[1][0] <= horizon:
                samples.popleft()
            self._evaluate(spec, samples, now)

    # -- evaluation --------------------------------------------------------
    @staticmethod
    def _window(samples: Deque[Sample], now: float,
                window: float) -> Tuple[float, float]:
        """(total, bad) counted in the trailing ``window``."""
        if not samples:
            return 0.0, 0.0
        cutoff = now - window
        edge = samples[0]  # the baseline, until the window has filled
        for sample in reversed(samples):
            if sample[0] <= cutoff:
                edge = sample
                break
        newest = samples[-1]
        return newest[1] - edge[1], newest[2] - edge[2]

    def _burn(self, spec: SLOSpec, samples: Deque[Sample], now: float,
              window: float) -> float:
        """Burn rate over the trailing ``window`` sim-seconds: the bad
        fraction observed in it divided by the error budget.  1.0 spends
        the budget exactly at the sustainable rate, ``k`` ``k``× too
        fast."""
        total, bad = self._window(samples, now, window)
        if total <= 0:
            return 0.0
        return (bad / total) / spec.budget

    def _evaluate(self, spec: SLOSpec, samples: Deque[Sample],
                  now: float) -> None:
        # each distinct window is read once: with the default pairs the
        # fast pair's long window is the slow pair's short one
        burns = {window: self._burn(spec, samples, now, window)
                 for window in {*spec.fast[:2], *spec.slow[:2]}}
        for severity, (short, long_, factor) in (
                (SEVERITY_PAGE, spec.fast), (SEVERITY_TICKET, spec.slow)):
            burn_short, burn_long = burns[short], burns[long_]
            firing = burn_short >= factor and burn_long >= factor
            if firing:
                # gathered for a new fire only: a pair already firing is
                # deduplicated by the log, which would drop them
                exemplars = (self.exemplar_fn(now - long_)
                             if self.exemplar_fn is not None
                             and not self.log.is_active(spec.name, severity)
                             else None)
                self.log.fire(spec.name, severity, now,
                              burn_short=burn_short, burn_long=burn_long,
                              windows=(short, long_), exemplars=exemplars)
            else:
                self.log.resolve(spec.name, severity, now)

    # -- reporting ---------------------------------------------------------
    def compliance(self) -> Dict[str, dict]:
        """Per-spec compliance over the slow-long window (the widest)."""
        now = self._clock()
        out = {}
        for name, (spec, _fn, samples) in sorted(self._specs.items()):
            total, bad = self._window(samples, now, spec.longest)
            sli = 1.0 - (bad / total) if total > 0 else 1.0
            out[name] = {
                "kind": spec.kind,
                "objective": spec.objective,
                "sli": sli,
                "compliant": sli >= spec.objective or total == 0,
                "burn_fast": self._burn(spec, samples, now, spec.fast[0]),
                "burn_slow": self._burn(spec, samples, now, spec.slow[0]),
                "window_total": total,
                "window_bad": bad,
            }
        return out

    def snapshot(self) -> dict:
        """Plain-dict reduction for the metrics registry."""
        out: Dict[str, Any] = {"alerts": self.log.snapshot()}
        for name, report in self.compliance().items():
            out[name] = {
                "objective": report["objective"],
                "sli": report["sli"],
                "compliant": int(report["compliant"]),
                "burn_fast": report["burn_fast"],
                "burn_slow": report["burn_slow"],
            }
        return out
