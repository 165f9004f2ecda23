"""Deployment/control surface for the sharded directory.

A :class:`DirectoryPlane` owns the ring, the shard servants, and the
live ``shard -> ObjectRef`` table that every :class:`DirectoryClient`
shares.  It is control-plane machinery: adding a shard is a deployment
action (bump the ring epoch, push it to the servants, let client caches
invalidate themselves), while *killing* a shard is a fault (the node
stays on the ring and clients fail over to the remaining replicas —
exactly what the E11 kill-replica drill asserts).

The plane also aggregates per-shard load and store sizes for the
:class:`~repro.obs.registry.MetricsRegistry` (``snapshot()``) and keeps
the old single-servant convenience ``app_count`` alive for deployments
and tests that held a ``collab.directory``.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.directory.client import DirectoryClient
from repro.directory.ring import HashRing
from repro.directory.shard import DIRECTORY_SHARD, DirectoryShardServant
from repro.orb.idl import validate_servant


class DirectoryPlane:
    """The deployed ring of directory shard servants."""

    def __init__(self, *, replicas: int = 1) -> None:
        self.replicas = max(1, replicas)
        self.ring = HashRing()
        self.servants: Dict[str, DirectoryShardServant] = {}
        self.orbs: Dict[str, object] = {}
        #: live ``shard name -> ObjectRef`` — shared (not copied) with
        #: every client so a restarted shard's new ref propagates
        self.refs: Dict[str, object] = {}
        self._killed: Set[str] = set()

    # -- membership (deployment actions) -----------------------------------
    def add_shard(self, name: str, orb) -> None:
        """Activate a shard servant on ``orb`` and join it to the ring."""
        servant = DirectoryShardServant(name, ring_epoch=self.ring.epoch)
        validate_servant(servant, DIRECTORY_SHARD)
        ref = orb.activate(servant, key=f"DirectoryShard:{name}",
                           type_id="IDL:DirectoryShard:1.0")
        self.servants[name] = servant
        self.orbs[name] = orb
        self.refs[name] = ref
        self.ring.add_node(name)
        self._sync_epochs()

    def _sync_epochs(self) -> None:
        # control-plane push: servants learn the new epoch immediately;
        # clients notice on their next call via the shared ring object
        for servant in self.servants.values():
            servant.ring_epoch = self.ring.epoch

    # -- faults (ring membership unchanged) --------------------------------
    def kill_shard(self, name: str) -> None:
        """Crash a shard replica: its ORB stops serving but the node stays
        on the ring — reads must fail over, writes skip it."""
        self.orbs[name].shutdown()
        self._killed.add(name)

    @property
    def live_shards(self) -> List[str]:
        return [n for n in self.ring.nodes if n not in self._killed]

    # -- clients -----------------------------------------------------------
    def make_client(self, orb, *, server_name: str = "", health=None,
                    metrics=None, log=None,
                    call_timeout: float = 30.0) -> DirectoryClient:
        """A client routing on the plane's live ring and ref table."""
        return DirectoryClient(
            orb, self.ring, self.refs, server_name=server_name,
            replicas=self.replicas, health=health, metrics=metrics,
            log=log, call_timeout=call_timeout,
            refresh=lambda: self.ring)

    def client_for(self, server) -> DirectoryClient:
        """A client wired to one ``DiscoverServer``'s orb/health/metrics."""
        return self.make_client(
            server.orb, server_name=server.name, health=server.health,
            metrics=server.directory_metrics, log=server.log,
            call_timeout=server.peer_call_timeout)

    # -- aggregation (in-process reads over the servants) ------------------
    def app_count(self) -> int:
        """Distinct app records ring-wide (each lives on R shards)."""
        apps: Set[str] = set()
        for servant in self.servants.values():
            apps |= servant.app_ids()
        return len(apps)

    def per_shard_load(self, live_only: bool = False) -> Dict[str, int]:
        """``{shard: requests served}`` — the E11 flatness metric."""
        names = self.live_shards if live_only else list(self.servants)
        return {name: self.servants[name].requests for name in names}

    def load_flatness(self) -> float:
        """max/mean of the live shards' request load (1.0 = perfectly
        flat)."""
        loads = list(self.per_shard_load(live_only=True).values())
        if not loads or sum(loads) == 0:
            return 0.0
        return max(loads) / (sum(loads) / len(loads))

    def snapshot(self) -> dict:
        return {
            "shards": len(self.servants),
            "replicas": self.replicas,
            "epoch": self.ring.epoch,
            "killed": sorted(self._killed),
            "apps": self.app_count(),
            "load_flatness": round(self.load_flatness(), 4),
            "per_shard": {name: servant.stats()
                          for name, servant in sorted(self.servants.items())},
        }
