"""Declarative synthetic traffic for fleet-scale scenarios (E11).

Modeled on AsyncFlow's ``SimulationInput``/``requests_generator`` shape:
a scenario is *data* — arrival process, session length, think time, and
app-mix distributions — compiled into a deterministic stream of session
plans by :func:`session_plans`.  Every draw comes from a named
:class:`~repro.sim.rng.DeterministicRNG` child stream, so adding a new
distribution never perturbs existing ones and a (spec, seed) pair always
replays the identical workload.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence

from repro.sim.rng import DeterministicRNG


@dataclass(frozen=True)
class Dist:
    """One scalar distribution, declared as data.

    ``kind`` ∈ {"constant", "exponential"}; integer draws round via
    :meth:`sample_int` (minimum 1).
    """

    kind: str
    mean: float = 0.0

    def sample(self, rng: DeterministicRNG) -> float:
        if self.kind == "constant":
            return self.mean
        if self.kind == "exponential":
            return rng.exponential(self.mean)
        raise ValueError(f"unknown distribution kind {self.kind!r}")

    def sample_int(self, rng: DeterministicRNG) -> int:
        return max(1, round(self.sample(rng)))


def constant(value: float) -> Dist:
    return Dist("constant", mean=value)


def exponential(mean: float) -> Dist:
    return Dist("exponential", mean=mean)


@dataclass(frozen=True)
class TrafficSpec:
    """A whole workload, declared as data.

    ``total_sessions`` sessions arrive over ``duration`` virtual seconds
    (Poisson arrivals); each session logs in at an edge server, performs
    ``ops_per_session`` directory locates separated by ``think_time``, and
    logs out.  The per-op application is drawn from the app population
    either uniformly or Zipf-weighted (``app_mix="zipf"``, skew
    ``zipf_s``) — popular apps concentrating load is exactly what the
    consistent-hash ring must flatten.
    """

    total_sessions: int
    duration: float
    ops_per_session: Dist = field(default_factory=lambda: constant(2))
    think_time: Dist = field(default_factory=lambda: exponential(0.1))
    app_mix: str = "uniform"
    zipf_s: float = 1.1
    seed: int = 0

    def arrival_gap(self) -> Dist:
        return exponential(self.duration / max(1, self.total_sessions))


@dataclass
class SessionPlan:
    """One client's scripted visit, fully drawn up-front."""

    user: str
    edge: str
    apps: List[str]
    thinks: List[float]


class _AppMix:
    """Draws apps uniformly or Zipf-weighted via an inverse CDF."""

    def __init__(self, apps: Sequence[str], mix: str, s: float) -> None:
        self.apps = list(apps)
        self.mix = mix
        self._cdf: List[float] = []
        if mix == "zipf":
            total = 0.0
            for rank in range(1, len(self.apps) + 1):
                total += 1.0 / rank ** s
                self._cdf.append(total)
            self._total = total
        elif mix != "uniform":
            raise ValueError(f"unknown app_mix {mix!r}")

    def draw(self, rng: DeterministicRNG) -> str:
        if self.mix == "uniform":
            return rng.choice(self.apps)
        u = rng.uniform(0.0, self._total)
        return self.apps[min(bisect_left(self._cdf, u),
                             len(self.apps) - 1)]


def session_plans(spec: TrafficSpec, users: Sequence[str],
                  apps: Sequence[str], servers: Sequence[str],
                  rng: Optional[DeterministicRNG] = None,
                  ) -> Iterator[tuple]:
    """Yield ``(inter_arrival_gap, SessionPlan)`` pairs.

    The generator draws everything per-session from independent child
    streams of ``rng`` (default: seeded from ``spec.seed``), so the
    stream is reproducible and independent of consumption timing.
    """
    if not users or not apps or not servers:
        raise ValueError("need users, apps and servers to generate traffic")
    rng = rng or DeterministicRNG(spec.seed, "traffic")
    arrivals = rng.child("arrivals")
    picks = rng.child("users")
    edges = rng.child("edges")
    ops = rng.child("ops")
    thinks = rng.child("thinks")
    mixer = _AppMix(apps, spec.app_mix, spec.zipf_s)
    mix_rng = rng.child("mix")
    gap_dist = spec.arrival_gap()
    for _ in range(spec.total_sessions):
        gap = gap_dist.sample(arrivals)
        n_ops = spec.ops_per_session.sample_int(ops)
        plan = SessionPlan(
            user=picks.choice(users),
            edge=edges.choice(servers),
            apps=[mixer.draw(mix_rng) for _ in range(n_ops)],
            thinks=[spec.think_time.sample(thinks) for _ in range(n_ops)],
        )
        yield gap, plan
