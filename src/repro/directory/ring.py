"""Consistent-hash ring with virtual nodes and an explicit epoch.

Nodes are directory shard servers; keys are user names and app ids.
Each node is hashed at :data:`VNODES` points on a 64-bit circle and a key
is owned by the first node point at or clockwise-after the key's hash
(``shard_of``).  ``replicas_of`` walks further clockwise and collects
the first R *distinct* nodes, so replica sets survive vnode
interleaving.

Hashing uses BLAKE2b with an 8-byte digest — deterministic across
processes and Python versions (``hash()`` is salted by
``PYTHONHASHSEED`` and must never reach placement decisions).

Each membership change (``add_node``) bumps ``epoch``.
Clients stamp every shard call with the epoch they routed under;
servants reject stale epochs so a caller that routed on an old ring
re-resolves instead of silently writing to the wrong shard.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List

#: virtual-node count per server — enough that 1000 keys over a
#: handful of shards balance within ~2x of ideal (property-tested).
VNODES = 128


def _hash64(data: str) -> int:
    """Deterministic 64-bit point on the ring for ``data``."""
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing:
    """Consistent-hash ring over named shard servers."""

    def __init__(self) -> None:
        #: bumped on every membership change; stamped on shard calls
        self.epoch = 0
        self._nodes: Dict[str, List[int]] = {}
        # sorted, parallel: _points[i] is owned by _owners[i]
        self._points: List[int] = []
        self._owners: List[str] = []

    # -- membership --------------------------------------------------------
    def add_node(self, node: str) -> int:
        """Add ``node``; returns the new epoch."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on ring")
        points = [_hash64(f"{node}#v{i}") for i in range(VNODES)]
        self._nodes[node] = points
        for point in points:
            idx = bisect.bisect(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, node)
        self.epoch += 1
        return self.epoch

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    # -- key placement -----------------------------------------------------
    def shard_of(self, key: str) -> str:
        """Primary owner of ``key`` (first node point clockwise)."""
        if not self._points:
            raise LookupError("ring has no nodes")
        idx = bisect.bisect(self._points, _hash64(key)) % len(self._points)
        return self._owners[idx]

    def replicas_of(self, key: str, r: int) -> List[str]:
        """First ``r`` *distinct* nodes clockwise from ``key``.

        The primary (``shard_of``) is always ``replicas_of(key, r)[0]``.
        When the ring has fewer than ``r`` nodes, every node is returned.
        """
        if not self._points:
            raise LookupError("ring has no nodes")
        want = min(r, len(self._nodes))
        start = bisect.bisect(self._points, _hash64(key))
        total = len(self._points)
        out: List[str] = []
        seen = set()
        for step in range(total):
            owner = self._owners[(start + step) % total]
            if owner not in seen:
                seen.add(owner)
                out.append(owner)
                if len(out) == want:
                    break
        return out
