"""Access policies — the paper's §6.3 sketch.

"Currently, the system does not track the use of resources.  It is,
however, possible to add control mechanisms by creating access policies for
each server, and then restricting each server's use of resources according
to that policy.  The access policies ... can be defined in terms of metrics
like number of requests per second, or the data bytes being transferred to
each server per second."

:class:`ResourcePolicy` implements exactly those two metrics as token
buckets (requests/s and bytes/s).  The tracking the paper says was missing
is :class:`repro.obs.RequestCostLedger`: per principal, its requests,
errors (policy rejections among them) and LAN/WAN bytes.  Every plane's
admission step applies a principal's policy when one is installed.
"""

from __future__ import annotations

from typing import Dict, Optional


class PolicyViolation(Exception):
    """A peer exceeded its resource policy (request rejected)."""


class TokenBucket:
    """Standard token bucket over virtual time."""

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last = 0.0

    def refill(self, now: float) -> float:
        """Add the tokens earned up to virtual time ``now``; the level."""
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        return self._tokens

    def take(self, amount: float) -> None:
        """Spend ``amount`` tokens the last :meth:`refill` showed."""
        self._tokens -= amount


class ResourcePolicy:
    """Both §6.3 metrics for one principal class.

    ``max_requests_per_s`` / ``max_bytes_per_s`` of ``None`` means
    unlimited on that axis.
    """

    def __init__(self, max_requests_per_s: Optional[float] = None,
                 max_bytes_per_s: Optional[float] = None,
                 burst_seconds: float = 2.0) -> None:
        self._req_bucket = (TokenBucket(max_requests_per_s,
                                        max_requests_per_s * burst_seconds)
                            if max_requests_per_s else None)
        self._byte_bucket = (TokenBucket(max_bytes_per_s,
                                         max_bytes_per_s * burst_seconds)
                             if max_bytes_per_s else None)

    def admit(self, now: float, nbytes: int = 0) -> bool:
        """True if one request of ``nbytes`` is within policy at ``now``.

        Both buckets refill to ``now`` and give tokens only if both hold
        enough, so a request one bucket refuses spends nothing from the
        other.
        """
        req, byte = self._req_bucket, self._byte_bucket
        req_ok = req is None or req.refill(now) >= 1.0
        byte_ok = byte is None or byte.refill(now) >= nbytes
        if not (req_ok and byte_ok):
            return False
        if req is not None:
            req.take(1.0)
        if byte is not None:
            byte.take(float(nbytes))
        return True


class PolicyManager:
    """Installs policies per principal and enforces them."""

    def __init__(self) -> None:
        self._policies: Dict[str, ResourcePolicy] = {}

    def set_policy(self, principal: str, policy: ResourcePolicy) -> None:
        self._policies[principal] = policy

    def check(self, principal: str, now: float, nbytes: int = 0) -> None:
        """Raise :class:`PolicyViolation` if ``principal``'s policy
        refuses one request of ``nbytes`` at ``now``."""
        policy = self._policies.get(principal)
        if policy is not None and not policy.admit(now, nbytes):
            raise PolicyViolation(
                f"{principal!r} exceeded its resource policy")
