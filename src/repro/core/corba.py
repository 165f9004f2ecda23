"""The two CORBA interface levels of the middleware substrate (§5.1).

- :class:`DiscoverCorbaServerServant` — level one, one per server: "the
  server's gateway for all other DISCOVER servers" — authenticate, list
  active services/users, obtain ``CorbaProxy`` references, and receive
  pushed updates/responses for locally connected clients.
- :class:`CorbaProxyServant` — level two, one per active application: "an
  application's gateway for all other servers" — interface/status queries,
  command delivery, steering-lock relay, and update subscriptions.

Both are plain ORB servants; generator methods run in virtual time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.orb import ObjectNotFound, ObjectRef
from repro.wire import Message

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.server import DiscoverServer


class DiscoverCorbaServerServant:
    """Level-one interface: the server's gateway to its peers."""

    def __init__(self, server: "DiscoverServer") -> None:
        self.server = server

    # -- §3: "authenticate with the server and query it for active
    # services, applications and users" -------------------------------------
    def ping(self) -> str:
        """Liveness probe; returns the server's name."""
        return self.server.name

    def authenticate_and_list(self, user: str) -> List[dict]:
        """Authenticate ``user`` and return the applications here they can
        access — the login fan-out of §5.2.2 ("authenticate the client with
        each server in the network, and in return gets the list of active
        applications ... to which the user has some access privileges")."""
        yield self.server.sim.timeout(self.server.costs.auth_check_cost)
        if not self.server.security.authenticate_user(user):
            return []
        return self.server.visible_apps(user)

    def get_active_applications(self) -> List[dict]:
        """Summaries of every active local application."""
        return [p.summary() for p in self.server.local_proxies.values()
                if p.active]

    def get_users(self) -> List[str]:
        """Users with live client sessions on this server."""
        return sorted({s.user for s in
                       self.server.collab._sessions.values()})

    def get_corba_proxy(self, app_id: str) -> ObjectRef:
        """Reference to the CorbaProxy of a local application."""
        ref = self.server.corba_proxy_refs.get(app_id)
        if ref is None:
            raise ObjectNotFound(f"no application {app_id!r} at "
                                 f"{self.server.name}")
        return ref

    # -- push targets (invoked oneway by peer servers) ---------------------
    def deliver_to_client(self, client_id: str, msg: Message) -> bool:
        """A peer pushes a response/notification for a client homed here."""
        return self.server.collab.push_to_client(client_id, msg)

    def deliver_update(self, app_id: str, msg: Message) -> int:
        """A peer pushes an application update for local subscribers.

        §5.2.3: "instead of sending individual collaboration messages to
        all the clients connected through a remote server, only one message
        is sent to that remote server, which then updates its locally
        connected clients."  Routed through the server so the federation
        layer sees ``app_stopped`` notices (cache invalidation) and can
        record per-app staleness.
        """
        return self.server.on_peer_update(app_id, msg)

    def deliver_group_message(self, app_id: str, group: str,
                              msg: Message, exclude: str = "") -> int:
        """A peer pushes a chat/whiteboard/shared-view group message."""
        return self.server.collab.broadcast_group(
            app_id, group, msg, exclude=exclude or None)

    def exchange_health(self, server_name: str, view: dict) -> dict:
        """Gossip: merge a peer's health view and answer with ours."""
        return self.server.health.exchange(server_name, view)


class CorbaProxyServant:
    """Level-two interface: one application's gateway to remote servers."""

    def __init__(self, server: "DiscoverServer", app_id: str) -> None:
        self.server = server
        self.app_id = app_id

    def _proxy(self):
        proxy = self.server.local_proxies.get(self.app_id)
        if proxy is None:
            raise ObjectNotFound(f"application {self.app_id!r} gone")
        return proxy

    def _handle(self):
        """The home-side handle, whose archival reads this servant serves."""
        return self.server.router.resolve(self.app_id)

    # -- queries ----------------------------------------------------------
    def get_interface(self, user: str) -> dict:
        """Second-level authentication + the customized steering interface
        (§5.2.2)."""
        privilege = self.server.security.app_privilege(user, self.app_id)
        if privilege is None:
            from repro.core.security import SecurityError
            raise SecurityError(
                f"user {user!r} has no access to {self.app_id!r}")
        proxy = self._proxy()
        return {
            "app_id": self.app_id,
            "name": proxy.app_name,
            "privilege": privilege,
            "interface": proxy.interface,
            "last_update": proxy.last_update,
        }

    def get_status(self) -> dict:
        """Proxy-level status summary."""
        return self._proxy().summary()

    # -- command path --------------------------------------------------------
    def deliver_command(self, user: str, client_id: str, command: str,
                        args: Optional[dict] = None,
                        request_id: Optional[int] = None) -> int:
        """Relay of a remote client's command — authoritative checks here.

        Returns the request id the eventual response will carry.
        """
        return self.server.submit_local_command(
            user, client_id, self.app_id, command, args or {}, request_id)

    # -- locking (§5.2.4: relays reach the host server) ----------------------
    def acquire_lock(self, client_id: str) -> str:
        return self.server.locks.acquire(self.app_id, client_id)

    def release_lock(self, client_id: str) -> Optional[str]:
        return self.server.locks.release(self.app_id, client_id)

    def lock_holder(self) -> Optional[str]:
        return self.server.locks.holder_of(self.app_id)

    def drop_client(self, client_id: str) -> list:
        """A remote client left (logout, or its HTTP session expired at
        its own server): everything it holds or waits for in this host
        server's lock table goes, and the next waiter is granted."""
        return self.server.locks.drop_client(client_id)

    def get_updates_since(self, seq: int) -> list:
        """Poll mode (§5.2.3's literal design): updates newer than ``seq``.

        The reproduction defaults to push (one message per remote server per
        update, matching the paper's traffic argument); this operation
        enables the polling alternative, compared in ablation A4.
        """
        return self._proxy().updates_since(seq)

    # -- update subscription ----------------------------------------------------
    def subscribe_server(self, server_name: str) -> bool:
        """A peer asks to receive this application's updates."""
        self._proxy().subscribe_server(server_name)
        self.server.journal.append("proxy.peer_sub", {
            "app_id": self.app_id, "server": server_name})
        return True

    def unsubscribe_server(self, server_name: str) -> bool:
        self._proxy().unsubscribe_server(server_name)
        self.server.journal.append("proxy.peer_unsub", {
            "app_id": self.app_id, "server": server_name})
        return True

    # -- group messaging across servers ---------------------------------------
    def publish_group_message(self, group: str, msg: Message,
                              exclude: str = "") -> int:
        """Fan a group message out from the application's home server."""
        return self.server.publish_local_group(
            self.app_id, group, msg, exclude=exclude or None)

    # -- archival (§5.2.5: the home server owns the logs) ----------------------
    def replay_interactions(self, user: str, since: float = 0.0,
                            limit: Optional[int] = None):
        """A remote user's readable interaction history (relayed read)."""
        return (yield from self._handle().replay_interactions(user, since,
                                                             limit))

    def replay_app_log(self, user: str, since: float = 0.0,
                       limit: Optional[int] = None):
        """The application's archived history, served to a remote server."""
        return (yield from self._handle().replay_app_log(user, since, limit))

    def latecomer_catchup(self, user: str, n: int = 20):
        """Recent interactions for a remote late joiner."""
        return (yield from self._handle().latecomer_catchup(user, n))
