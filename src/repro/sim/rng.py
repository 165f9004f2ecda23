"""Deterministic random-number streams.

Every stochastic element of a scenario (client think time, application
compute phase length, workload arrivals) draws from its own named child
stream so adding a new random consumer never perturbs existing ones — the
standard trick for reproducible parallel-system simulations.
"""

from __future__ import annotations

import hashlib
from math import isfinite
from typing import Optional

import numpy as np


class DeterministicRNG:
    """A tree of named, independently-seeded ``numpy`` generators."""

    def __init__(self, seed: int = 0, path: str = "root") -> None:
        self.seed = int(seed)
        self.path = path
        self._gen = np.random.default_rng(self._derive(path))

    def _derive(self, path: str) -> int:
        digest = hashlib.sha256(f"{self.seed}/{path}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def child(self, name: str) -> "DeterministicRNG":
        """An independent stream identified by ``name`` under this one."""
        return DeterministicRNG(self.seed, f"{self.path}/{name}")

    # -- draws ------------------------------------------------------------
    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """``Generator.uniform(low, high)`` bit for bit — the same
        ``low + (high - low) * u`` on the same draw ``u`` — without numpy's
        per-call argument conversion, and with its two refusals."""
        low = float(low)
        span = float(high) - low
        if not isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if span < 0:
            raise ValueError("high - low < 0")
        return low + span * self._gen.random()

    def exponential(self, mean: float) -> float:
        return float(self._gen.exponential(mean))

    def integers(self, low: int, high: Optional[int] = None) -> int:
        return int(self._gen.integers(low, high))

    def choice(self, seq):
        """Pick one element of a non-empty sequence."""
        if len(seq) == 0:
            raise ValueError("choice() on empty sequence")
        return seq[int(self._gen.integers(0, len(seq)))]

    def jitter(self, value: float, fraction: float) -> float:
        """``value`` perturbed uniformly by up to ±``fraction``."""
        return value * self.uniform(1.0 - fraction, 1.0 + fraction)
