"""Client half of the sharded directory: routing, replication, failover.

The old ``UserDirectoryService`` callers held one ``directory_ref`` and
invoked it directly.  A :class:`DirectoryClient` instead:

- routes every key through the shared :class:`~repro.directory.ring.HashRing`
  to its R replica shards,
- **writes through** to all replicas (a write that reaches at least one
  replica succeeds; skipped replicas are counted and reported to the
  health plane),
- **reads with failover**: replicas marked ``unhealthy`` by the health
  monitor are routed around up-front, and a replica that times out
  mid-read is skipped with a ``note_failover`` — the read succeeds as
  long as any replica answers,
- keeps a **stub cache** keyed by shard (so the ring bounds it) that is
  invalidated wholesale whenever the ring epoch changes, and per-entry
  when a shard's ref changes or an invocation fails,
- stamps every call with the ring epoch it routed under and transparently
  retries once when a servant rejects the call as ``StaleRingEpoch``.

Each shard call is booked once, in :meth:`DirectoryClient._call`, by the
health plane's liveness rule (``HealthMonitor.note_call``): only a
``CommFailure`` is a miss — any other reply proves the replica alive.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.directory.ring import HashRing
from repro.directory.shard import DIRECTORY_SHARD, STALE_EPOCH
from repro.orb.errors import CommFailure, OrbError, RemoteException
from repro.orb.idl import Stub, make_stub


class DirectoryClient:
    """One server's typed gateway to the sharded directory plane."""

    def __init__(self, orb, ring: HashRing, refs: Mapping[str, Any], *,
                 server_name: str = "", replicas: int = 1,
                 health=None, metrics=None, log=None,
                 call_timeout: float = 30.0,
                 refresh: Optional[Callable[[], HashRing]] = None) -> None:
        self.orb = orb
        self.ring = ring
        #: called on a stale-epoch rejection to fetch the live ring (the
        #: plane wires this up); None means the ring object is shared and
        #: already live
        self.refresh = refresh
        #: live ``shard name -> ObjectRef`` view, owned by the plane
        self.refs = refs
        self.server_name = server_name
        self.replicas = max(1, replicas)
        #: the server's ``HealthMonitor`` or None: each shard call is
        #: booked with its ``note_call``, reads route around its
        #: ``is_unhealthy_peer`` and count failovers with ``note_failover``
        self.health = health
        self.metrics = metrics
        self.log = log
        self.call_timeout = call_timeout
        self._stubs: Dict[str, Stub] = {}
        self._seen_epoch = ring.epoch

    # -- bookkeeping -------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, n)

    def _epoch_guard(self) -> None:
        """Drop every cached stub when the ring membership changed."""
        if self.ring.epoch != self._seen_epoch:
            if self._stubs:
                self._count("epoch_invalidations", len(self._stubs))
                self._stubs.clear()
            self._seen_epoch = self.ring.epoch

    def _stub(self, shard: str) -> Optional[Stub]:
        ref = self.refs.get(shard)
        if ref is None:
            return None
        stub = self._stubs.get(shard)
        if stub is not None and stub.ref is ref:
            self._count("stub_cache_hits")
            return stub
        self._count("stub_cache_misses")
        stub = self._stubs[shard] = make_stub(
            self.orb, ref, DIRECTORY_SHARD, timeout=self.call_timeout)
        return stub

    def _unhealthy(self, shard: str) -> bool:
        return (self.health is not None
                and self.health.is_unhealthy_peer(shard))

    # -- low-level call with stale-epoch retry -----------------------------
    def _call(self, shard: str, op: str, *args):
        """Invoke ``op`` on ``shard``, stamping the ring epoch; retries
        once after refreshing when the servant reports a stale epoch.

        The outcome is booked once: an :class:`OrbError` drops the shard's
        stub and is booked before it propagates; an answer is proof of life.
        """
        try:
            for attempt in (0, 1):
                self._epoch_guard()
                stub = self._stub(shard)
                if stub is None:
                    raise CommFailure(f"no ref for directory shard {shard!r}")
                try:
                    result = yield from getattr(stub, op)(*args,
                                                          self.ring.epoch)
                    break
                except RemoteException as exc:
                    if exc.exc_type != STALE_EPOCH or attempt:
                        raise
                    # servant moved ahead of the epoch we stamped —
                    # refresh the ring view, drop caches, re-route
                    self._count("stale_epoch_retries")
                    if self.refresh is not None:
                        self.ring = self.refresh()
                    self._stubs.clear()
                    self._seen_epoch = self.ring.epoch
        except OrbError as exc:
            self._stubs.pop(shard, None)
            if self.health is not None:
                self.health.note_call(shard, exc)
            raise
        if self.health is not None:
            self.health.note_call(shard)
        return result

    # -- replicated write / read -------------------------------------------
    def _write(self, key: str, op: str, *args) -> Any:
        """Write-through to every replica of ``key``.

        Succeeds (returning the first replica's result) when at least one
        replica accepted the write; unreachable replicas are skipped and
        counted — anti-entropy is the health plane's job, not the caller's.
        """
        self._epoch_guard()
        result: Any = None
        wrote = False
        last_exc: Optional[OrbError] = None
        for shard in self.ring.replicas_of(key, self.replicas):
            try:
                value = yield from self._call(shard, op, *args)
            except OrbError as exc:
                self._count("write_skips")
                last_exc = exc
                if self.log is not None:
                    self.log.warn("dir_write_skipped", shard=shard,
                                  op=op, error=type(exc).__name__)
                continue
            if not wrote:
                result = value
                wrote = True
        if not wrote:
            raise last_exc if last_exc is not None else CommFailure(
                f"no replicas reachable for {op} key={key!r}")
        return result

    def _read(self, key: str, op: str, *args) -> Any:
        """Read from the first live replica of ``key``.

        Replicas the health plane marks unhealthy are skipped up-front;
        a replica that fails mid-read is skipped with a failover note.
        Raises the last error when every replica fails.
        """
        self._epoch_guard()
        order = self.ring.replicas_of(key, self.replicas)
        # route around known-unhealthy replicas, but keep them as a last
        # resort so a fully-marked replica set still gets one attempt
        preferred = [s for s in order if not self._unhealthy(s)]
        skipped = [s for s in order if self._unhealthy(s)]
        last_exc: Optional[OrbError] = None
        for position, shard in enumerate(preferred + skipped):
            if position > 0:
                self._count("read_failovers")
                if self.health is not None:
                    self.health.note_failover()
            started = self.orb.sim.now
            try:
                value = yield from self._call(shard, op, *args)
            except OrbError as exc:
                last_exc = exc
                continue
            if self.metrics is not None:
                self.metrics.observe_read(self.orb.sim.now - started)
            return value
        if self.log is not None:
            self.log.error("dir_read_failed", key=key, op=op,
                           replicas=len(order))
        raise last_exc if last_exc is not None else CommFailure(
            f"no replicas reachable for {op} key={key!r}")

    # -- directory API (generator methods, mirror the old servant) ---------
    def authenticate(self, user: str) -> bool:
        """Network-wide level-one authentication in one sharded lookup."""
        self._count("authenticates")
        return (yield from self._read(user, "authenticate", user))

    def lookup(self, user: str) -> List[dict]:
        """Every application the user may access, network-wide."""
        self._count("lookups")
        return (yield from self._read(user, "lookup", user))

    def locate_app(self, app_id: str) -> Optional[str]:
        """Home server of ``app_id`` per the directory (or None)."""
        self._count("locates")
        return (yield from self._read(app_id, "locate_app", app_id))

    def publish_app(self, app_id: str, server: str, name: str,
                    acl: Dict[str, str]) -> bool:
        """Publish one application's ACL and location.

        The app record and each user's entry hash to (generally)
        different shards; users dropped from a previous ACL are cleaned
        up using the prior user list the app shard returns.
        """
        self._count("publishes")
        prior = yield from self._write(
            app_id, "put_app", app_id, server, name, sorted(acl))
        for user in prior or ():
            if user not in acl:
                yield from self._write(user, "drop_user_entry", user, app_id)
        for user, privilege in acl.items():
            summary = {"app_id": app_id, "name": name, "server": server,
                       "privilege": privilege, "active": True,
                       "phase": "unknown"}
            yield from self._write(
                user, "put_user_entry", user, app_id, summary)
        return True

    def withdraw_app(self, app_id: str) -> bool:
        """Remove an application and every user entry pointing at it."""
        self._count("withdrawals")
        users = yield from self._write(app_id, "drop_app", app_id)
        for user in users or ():
            yield from self._write(user, "drop_user_entry", user, app_id)
        return True

    def withdraw_server(self, server: str) -> int:
        """Bulk-withdraw everything ``server`` published: one
        ``drop_server`` per shard (each shard cleans its own slice via
        its reverse indexes); returns app records dropped ring-wide."""
        self._count("server_withdrawals")
        self._epoch_guard()
        dropped: set = set()
        for shard in list(self.ring.nodes):
            try:
                app_ids = yield from self._call(shard, "drop_server", server)
            except OrbError:
                self._count("write_skips")
                continue
            dropped.update(app_ids)
        return len(dropped)
