"""One shard of the directory: the storage half of the old §6.3 service.

``UserDirectoryService`` kept the whole network's ``user -> apps`` and
``app -> location`` maps behind a single servant.  A
:class:`DirectoryShardServant` holds only the slice of those maps whose
keys hash to it, exposed over the ORB through :data:`DIRECTORY_SHARD`.
The lookup/replication logic lives client-side in
:class:`repro.directory.client.DirectoryClient`; the servant is a plain
keyed store plus the reverse indexes that make withdrawal O(affected
entries) instead of O(shard).

Every mutating/reading operation carries the caller's ring ``epoch``.
A servant behind the caller adopts the newer epoch; a caller behind the
servant gets :class:`StaleRingEpoch` back (as a ``RemoteException``
named ``StaleRingEpoch``) and must re-route — this is what keeps a
client that cached routing across a membership change from reading or
writing the wrong shard.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.orb.idl import Interface, Operation

#: RemoteException type name clients match on to refresh + retry
STALE_EPOCH = "StaleRingEpoch"


class StaleRingEpoch(Exception):
    """Caller routed on an older ring than this servant knows."""


#: IDL for one directory shard (user entries, app locations, bulk drops)
DIRECTORY_SHARD = Interface("DirectoryShard", (
    Operation("put_user_entry", ("user", "app_id", "summary", "epoch"),
              doc="write one user's visibility of one app"),
    Operation("drop_user_entry", ("user", "app_id", "epoch"),
              doc="remove one user's visibility of one app"),
    Operation("put_app", ("app_id", "server", "name", "users", "epoch"),
              doc="write an app's location record; returns prior users"),
    Operation("drop_app", ("app_id", "epoch"),
              doc="remove an app's location record; returns its users"),
    Operation("lookup", ("user", "epoch"),
              doc="apps visible to the user on this shard"),
    Operation("authenticate", ("user", "epoch"),
              doc="does this shard know the user?"),
    Operation("locate_app", ("app_id", "epoch"),
              doc="home server of the app, or None"),
    Operation("drop_server", ("server", "epoch"),
              doc="bulk-remove everything published by one server"),
    Operation("stats", (), doc="request counters + store sizes"),
))


class DirectoryShardServant:
    """Keyed slice of the user-directory and app-placement maps."""

    def __init__(self, name: str, *, ring_epoch: int = 0) -> None:
        self.name = name
        self.ring_epoch = ring_epoch
        #: user → {app_id: summary}
        self._by_user: Dict[str, Dict[str, dict]] = {}
        #: app_id → (server, name, users)
        self._apps: Dict[str, Tuple[str, str, List[str]]] = {}
        # reverse indexes so drop_server never scans the whole shard
        self._apps_by_server: Dict[str, Set[str]] = {}
        self._entries_by_server: Dict[str, Set[Tuple[str, str]]] = {}
        self.requests = 0
        self.stale_rejections = 0

    # -- epoch gate --------------------------------------------------------
    def _gate(self, epoch: int) -> None:
        self.requests += 1
        if epoch > self.ring_epoch:
            # callers route on the live ring; learn the newer epoch
            self.ring_epoch = epoch
        elif epoch < self.ring_epoch:
            self.stale_rejections += 1
            raise StaleRingEpoch(
                f"shard {self.name} at epoch {self.ring_epoch}, "
                f"caller at {epoch}")

    # -- user entries ------------------------------------------------------
    def put_user_entry(self, user: str, app_id: str, summary: dict,
                       epoch: int) -> bool:
        self._gate(epoch)
        self._by_user.setdefault(user, {})[app_id] = summary
        server = summary.get("server", "")
        if server:
            self._entries_by_server.setdefault(server, set()).add(
                (user, app_id))
        return True

    def drop_user_entry(self, user: str, app_id: str, epoch: int) -> bool:
        self._gate(epoch)
        apps = self._by_user.get(user)
        if apps is None:
            return False
        summary = apps.pop(app_id, None)
        if not apps:
            del self._by_user[user]
        if summary is not None:
            server = summary.get("server", "")
            entries = self._entries_by_server.get(server)
            if entries is not None:
                entries.discard((user, app_id))
                if not entries:
                    del self._entries_by_server[server]
        return summary is not None

    # -- app placement records --------------------------------------------
    def put_app(self, app_id: str, server: str, name: str,
                users: List[str], epoch: int) -> List[str]:
        """Write the app record; returns the users of any prior record
        (so the client can drop entries for users no longer on the ACL)."""
        self._gate(epoch)
        prior = self._drop_app_record(app_id)
        self._apps[app_id] = (server, name, list(users))
        self._apps_by_server.setdefault(server, set()).add(app_id)
        return prior

    def drop_app(self, app_id: str, epoch: int) -> List[str]:
        """Remove the app record; returns the users it listed."""
        self._gate(epoch)
        return self._drop_app_record(app_id)

    def _drop_app_record(self, app_id: str) -> List[str]:
        record = self._apps.pop(app_id, None)
        if record is None:
            return []
        server, _name, users = record
        apps = self._apps_by_server.get(server)
        if apps is not None:
            apps.discard(app_id)
            if not apps:
                del self._apps_by_server[server]
        return users

    # -- reads -------------------------------------------------------------
    def lookup(self, user: str, epoch: int) -> List[dict]:
        self._gate(epoch)
        return list(self._by_user.get(user, {}).values())

    def authenticate(self, user: str, epoch: int) -> bool:
        self._gate(epoch)
        return user in self._by_user

    def locate_app(self, app_id: str, epoch: int) -> Optional[str]:
        self._gate(epoch)
        record = self._apps.get(app_id)
        return record[0] if record is not None else None

    # -- bulk withdrawal ---------------------------------------------------
    def drop_server(self, server: str, epoch: int) -> List[str]:
        """Remove every record/entry published by ``server``; returns the
        app ids whose records this shard dropped (the client unions them
        across replicas for an exact count)."""
        self._gate(epoch)
        dropped = sorted(self._apps_by_server.get(server, set()))
        for app_id in dropped:
            self._drop_app_record(app_id)
        for user, app_id in list(self._entries_by_server.get(server, ())):
            self.drop_user_entry(user, app_id, self.ring_epoch)
            self.requests -= 1  # internal reuse, not a wire request
        return dropped

    # -- introspection (also used in-process by the plane) -----------------
    def stats(self) -> dict:
        return {
            "shard": self.name,
            "epoch": self.ring_epoch,
            "requests": self.requests,
            "stale_rejections": self.stale_rejections,
            "users": len(self._by_user),
            "apps": len(self._apps),
        }

    def app_ids(self) -> Set[str]:
        return set(self._apps)
