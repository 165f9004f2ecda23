"""AppHandle: one interface to an application, wherever it lives.

§5.1's two interface levels exist so "clients can access the 'closest'
server and have access to applications and services provided by all the
servers".  An :class:`AppHandle` is the server-side embodiment of that
promise: the :class:`~repro.federation.router.AppRouter` resolves an
``app_id`` to a handle, and every caller drives the same generator
interface — ``open``, ``deliver_command``, the lock protocol,
``get_updates_since``, group publish, and archival replay — without ever
asking whether the application is local.

:class:`LocalAppHandle` wraps the home server's
:class:`~repro.core.proxy.ApplicationProxy` (plus the local security
check); :class:`RemoteAppHandle` wraps the level-two ``CorbaProxy`` stub,
including the §4.1 ``redirect`` remote-access mode.  Every method is a
generator (``result = yield from handle.op(...)``); purely local
operations delegate through ``yield from ()`` so the two variants stay
drop-in interchangeable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.security import SecurityError
from repro.orb import OrbError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.collaboration import ClientSession
    from repro.core.server import DiscoverServer
    from repro.federation.registry import PeerRegistry


class AppHandle:
    """Location-transparent access to one application (abstract)."""

    #: True when the application is homed at this server
    is_local = False

    def __init__(self, server: "DiscoverServer", app_id: str) -> None:
        self.server = server
        self.app_id = app_id

    # -- archival (served from the home server's archive, §5.2.5) ----------
    def replay_interactions(self, user: str, since: float = 0.0,
                            limit: Optional[int] = None):
        """Generator: a user's replayable interaction history (§5.2.5)."""
        records = self.server.archive.replay_interactions(
            self.app_id, user, since, limit)
        yield from self.server.host.use_cpu(
            self.server.costs.log_read_cost * max(1, len(records)))
        return records

    def replay_app_log(self, user: str, since: float = 0.0,
                       limit: Optional[int] = None):
        """Generator: the application's archived history."""
        records = self.server.archive.replay_app_log(
            self.app_id, user, since, limit)
        yield from self.server.host.use_cpu(
            self.server.costs.log_read_cost * max(1, len(records)))
        return records

    def latecomer_catchup(self, user: str, n: int = 20):
        """Generator: recent interactions for a late group joiner."""
        records = self.server.archive.latecomer_catchup(self.app_id, user, n)
        yield from self.server.host.use_cpu(
            self.server.costs.log_read_cost * max(1, len(records)))
        return records

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.app_id}>"


class LocalAppHandle(AppHandle):
    """Handle for an application homed at this server."""

    is_local = True

    def _proxy(self):
        return self.server._local_proxy(self.app_id)

    def open(self, user: str):
        """Generator: second-level auth + the customized steering
        interface (§5.2.2) for a local application."""
        privilege = self.server.security.app_privilege(user, self.app_id)
        if privilege is None:
            raise SecurityError(f"{user!r} has no access to "
                                f"{self.app_id!r}")
        proxy = self._proxy()
        yield from self.server.host.use_cpu(
            self.server.costs.auth_check_cost)
        return {"app_id": self.app_id, "name": proxy.app_name,
                "privilege": privilege, "interface": proxy.interface,
                "last_update": proxy.last_update}

    def deliver_command(self, session: "ClientSession", command: str,
                        args: dict):
        """Generator: authoritative command admission at the home server."""
        yield from ()  # no remote hop
        return self.server.submit_local_command(
            session.user, session.client_id, self.app_id, command, args)

    # -- lock protocol (host-server authoritative, §5.2.4) -----------------
    def acquire_lock(self, client_id: str):
        yield from ()  # no remote hop
        self._proxy()  # unknown application → SecurityError
        return self.server.locks.acquire(self.app_id, client_id)

    def release_lock(self, client_id: str):
        yield from ()  # no remote hop
        return self.server.locks.release(self.app_id, client_id)

    def lock_holder(self):
        yield from ()  # no remote hop
        return self.server.locks.holder_of(self.app_id)

    # -- updates / collaboration -------------------------------------------
    def get_updates_since(self, seq: int):
        yield from ()  # no remote hop
        return self._proxy().updates_since(seq)

    def publish_group(self, group: str, msg, exclude: Optional[str] = None):
        """Generator: home-server fan-out of a group message."""
        yield from ()  # no remote hop
        return self.server.publish_local_group(self.app_id, group, msg,
                                               exclude=exclude)


class RemoteAppHandle(AppHandle):
    """Handle relaying to an application's home server over the ORB."""

    def __init__(self, server: "DiscoverServer", registry: "PeerRegistry",
                 app_id: str) -> None:
        super().__init__(server, app_id)
        self.registry = registry
        from repro.directory import home_server_of
        self.home = home_server_of(app_id)

    def _failfast(self) -> None:
        """Fail eagerly when the health model has already marked the home
        server unhealthy — an immediate error the caller (or the router's
        replica failover) can act on, instead of a full call timeout.
        Nothing was contacted, so nothing is booked."""
        if self.registry.peer_unhealthy(self.home):
            self.server.federation_metrics.count("eager_failfast")
            raise OrbError(f"peer {self.home!r} marked unhealthy "
                           f"(eager failover at {self.server.name})")

    def _relay(self, op: str, *args, **kwargs):
        """Generator: one traced call on the application's level-two proxy.

        The registry drops the stale caches and books the outcome; an
        :class:`OrbError` propagates to the pipeline's error envelope.
        """
        with self.server.tracer.span(f"federation.relay.{op}",
                                     plane="federation",
                                     server=self.server.name,
                                     attrs={"app_id": self.app_id,
                                            "home": self.home}):
            self._failfast()
            return (yield from self.registry.call(
                self.home, op, *args, app_id=self.app_id, **kwargs))

    def open(self, user: str):
        """Generator: relay the §5.2.2 select — or, in the §4.1
        ``redirect`` remote-access mode, send the portal to the
        application's home server instead."""
        if self.server.remote_access == "redirect":
            return {"redirect": self.home, "app_id": self.app_id}
        info = yield from self._relay("get_interface", user)
        yield from self.server.subscriptions.attach(self)
        return info

    def deliver_command(self, session: "ClientSession", command: str,
                        args: dict):
        """Generator: relay a steering command to the home server (§5.1.1).

        Access is gated on the remote summaries gathered at login — the
        home server re-checks authoritatively on arrival.
        """
        remote = getattr(session, "remote_apps", {}).get(self.app_id)
        if remote is None:
            raise SecurityError(f"{session.user!r} has no access to "
                                f"{self.app_id!r}")
        with self.server.tracer.span("federation.deliver_command",
                                     plane="federation",
                                     server=self.server.name,
                                     attrs={"app_id": self.app_id,
                                            "command": command,
                                            "home": self.home}):
            self._failfast()
            self.server.stats["remote_commands_relayed"] += 1
            return (yield from self.registry.call(
                self.home, "deliver_command", session.user,
                session.client_id, command, args, app_id=self.app_id))

    # -- lock protocol (relayed; host server stays authoritative) ----------
    def acquire_lock(self, client_id: str):
        return (yield from self._relay("acquire_lock", client_id))

    def release_lock(self, client_id: str):
        return (yield from self._relay("release_lock", client_id))

    def lock_holder(self):
        return (yield from self._relay("lock_holder"))

    def drop_client(self, client_id: str):
        return (yield from self._relay("drop_client", client_id))

    # -- updates / collaboration -------------------------------------------
    def get_updates_since(self, seq: int):
        return (yield from self._relay("get_updates_since", seq))

    def subscribe(self, server_name: str):
        return (yield from self._relay("subscribe_server", server_name))

    def unsubscribe(self, server_name: str):
        return (yield from self._relay("unsubscribe_server", server_name))

    def publish_group(self, group: str, msg, exclude: Optional[str] = None):
        return (yield from self._relay("publish_group_message", group, msg,
                                       exclude=exclude or ""))

    # -- archival (the home server owns the logs; relay the read) ----------
    def replay_interactions(self, user: str, since: float = 0.0,
                            limit: Optional[int] = None):
        return (yield from self._relay("replay_interactions", user, since,
                                       limit))

    def replay_app_log(self, user: str, since: float = 0.0,
                       limit: Optional[int] = None):
        return (yield from self._relay("replay_app_log", user, since, limit))

    def latecomer_catchup(self, user: str, n: int = 20):
        return (yield from self._relay("latecomer_catchup", user, n))
