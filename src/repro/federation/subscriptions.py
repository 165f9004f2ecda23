"""SubscriptionManager: the remote-update lifecycle of one server.

§5.2.3 gives two ways for updates of a remote application to reach this
server: the home server *pushes* one message per subscribed peer (the
paper's traffic argument, our default), or this server *polls* the
application's ``CorbaProxy`` (the paper's literal description; ablation
A4 compares them).  This manager owns both:

- ``push`` mode: subscribe on first interest, and — the part the paper
  leaves implicit — **unsubscribe when the last local subscriber
  leaves**, so home servers do not fan out to dead subscribers forever.
- ``poll`` mode: one poller process per remote application, exiting after
  a few idle rounds once local interest is gone, and failing over through
  the registry's cache invalidation when the home server restarts.  It
  books nothing itself (the registry books each poll's relay); while the
  home is unhealthy, every fourth round is one ``check_peer`` probe.

Per-app staleness and failover counters are recorded into
:class:`repro.metrics.FederationMetrics`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable

from repro.orb import OrbError
from repro.sim import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.server import DiscoverServer
    from repro.federation.handles import RemoteAppHandle


def _cost_scope(server: "DiscoverServer"):
    """The poll round's cost scope — a no-op when accounting is off."""
    if server.ledger is None:
        from contextlib import nullcontext
        return nullcontext()
    return server.ledger.scoped(server.name, plane="federation",
                                operation="poll_round")


class SubscriptionManager:
    """Push-subscribe / poll-fallback lifecycle for remote updates."""

    def __init__(self, server: "DiscoverServer") -> None:
        self.server = server
        self.sim = server.sim
        self._pollers: Dict[str, Any] = {}

    @property
    def metrics(self):
        return self.server.federation_metrics

    # -- attachment (driven by RemoteAppHandle.open) -----------------------
    def attach(self, handle: "RemoteAppHandle"):
        """Generator: ensure this server receives the app's updates.

        Push mode re-subscribes on every select (idempotent at the home
        server) — the §5.2.3 contract is per-*server*, so the message cost
        stays one WAN round-trip per select, not per update.
        """
        if self.server.update_mode == "push":
            yield from handle.subscribe(self.server.name)
            self.metrics.count("subscribes")
        else:
            self._ensure_poller(handle)

    def detach_idle(self, app_ids: Iterable[str]) -> None:
        """A client left: unsubscribe any remote app with no local
        subscribers left (the push-mode mirror of the poller's idle exit).

        Plain call (logout is synchronous); the unsubscribe itself is a
        spawned process so session teardown never blocks on a WAN hop.
        """
        if self.server.update_mode != "push":
            return  # pollers notice idleness on their own
        router = self.server.router
        for app_id in set(app_ids):
            if router.is_local(app_id):
                continue
            if self.server.collab.local_subscribers(app_id):
                continue
            self.sim.spawn(self._unsubscribe(router.resolve(app_id)),
                           name=f"unsub-{app_id}@{self.server.name}")

    def _unsubscribe(self, handle: "RemoteAppHandle"):
        if self.server.collab.local_subscribers(handle.app_id):
            return  # a client re-subscribed before we ran
        try:
            yield from handle.unsubscribe(self.server.name)
        except OrbError:
            return  # home server gone; its subscriber set died with it
        self.metrics.count("unsubscribes")

    # -- poll fallback -----------------------------------------------------
    def _ensure_poller(self, handle: "RemoteAppHandle") -> None:
        poller = self._pollers.get(handle.app_id)
        if poller is not None and poller.is_alive:
            return
        self.metrics.count("pollers_started")
        self._pollers[handle.app_id] = self.sim.spawn(
            self._poll_remote_updates(handle),
            name=f"poll-{handle.app_id}@{self.server.name}")

    def _poll_remote_updates(self, handle: "RemoteAppHandle"):
        """Poll the remote CorbaProxy for updates while local clients care.

        An :class:`OrbError` invalidates the handle's caches (inside the
        registry's call), so the next round re-resolves the reference —
        the failover path when the home server restarts.
        """
        server, app_id = self.server, handle.app_id
        last_seq = 0
        idle_rounds = 0
        skipped = 0
        try:
            while idle_rounds < 3 or server.collab.local_subscribers(app_id):
                yield self.sim.timeout(server.update_poll_interval)
                if not server.collab.local_subscribers(app_id):
                    idle_rounds += 1
                    continue
                idle_rounds = 0
                if server.health.is_unhealthy_peer(handle.home):
                    # The shared health model already marked the home server
                    # down — don't burn a timeout on it each round.  Every
                    # fourth round is one real liveness probe (booked by the
                    # registry), so a recovered home server is re-observed
                    # and polling resumes.
                    skipped += 1
                    if skipped % 4 != 0:
                        self.metrics.count("poll_skipped_unhealthy")
                        continue
                    with _cost_scope(server):
                        yield from server.registry.check_peer(handle.home)
                    continue
                skipped = 0
                # Each round roots its own trace — pollers are background
                # processes, so there is no caller context to join.  The cost
                # scope attributes the round's spans and WAL writes to the
                # polling server itself (system load, not a user principal).
                with _cost_scope(server), \
                     server.tracer.span("federation.poll_round",
                                        plane="federation", server=server.name,
                                        attrs={"app_id": app_id,
                                               "since_seq": last_seq}):
                    try:
                        updates = yield from handle.get_updates_since(last_seq)
                    except OrbError:
                        self.metrics.count("poll_failovers")
                        continue
                self.metrics.count("poll_rounds")
                for update in updates:
                    last_seq = max(last_seq, update.seq)
                    self.observe_update(app_id, update)
                    server.collab.broadcast_update(app_id, update)
        except Interrupt:
            pass  # the server stopped (:meth:`stop`)
        self._pollers.pop(app_id, None)

    # -- bookkeeping -------------------------------------------------------
    def observe_update(self, app_id: str, msg) -> None:
        """Record per-app staleness for one remote update."""
        timestamp = getattr(msg, "timestamp", 0)
        if timestamp:
            self.metrics.observe_staleness(app_id, self.sim.now - timestamp)

    def forget(self, app_id: str) -> None:
        """The application stopped: drop lifecycle state (pollers exit on
        their own idle logic; nothing to tear down for push mode)."""
        self._pollers.pop(app_id, None)

    def stop(self) -> None:
        """The server is stopping: interrupt every live poller."""
        for poller in self._pollers.values():
            if poller.is_alive:
                poller.interrupt("server stopped")
