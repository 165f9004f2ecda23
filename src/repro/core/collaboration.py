"""Collaboration: client sessions, groups, and update fan-out.

§4.1: "All clients connected to a particular application form a
collaboration group by default.  Global updates ... are automatically
broadcast to this group.  Clients can form or join (or leave) collaboration
sub-groups within the application group.  Clients can also disable all
collaboration so that their requests/responses are not broadcast to the
entire collaboration group.  Individual views can still be explicitly
shared in this mode."

Because clients reach the server over HTTP (request/response only), every
client session owns a server-side **FIFO buffer** that fan-out writes into
and the client's poll requests drain (§6.2) — including the paper's caveat
that these buffers exist "to support slow clients" and cost memory, which
ablation A2 measures by bounding them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

from repro.sim import Store
from repro.storage import NULL_JOURNAL
from repro.wire import Message, freeze_size

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator

#: the default (whole-application) collaboration group name
DEFAULT_GROUP = "all"


class CollaborationError(Exception):
    """Unknown session/group, or an invalid membership operation."""


class ClientSession:
    """One logged-in client at one server."""

    def __init__(self, sim: "Simulator", client_id: str, user: str,
                 buffer_capacity: float = float("inf")) -> None:
        self.client_id = client_id
        self.user = user
        self.buffer: Store = Store(sim, capacity=buffer_capacity)
        self.apps: Set[str] = set()
        self.groups: Set[Tuple[str, str]] = set()
        self.collab_enabled = True
        #: remote application summaries gathered at login (app_id → summary)
        self.remote_apps: Dict[str, dict] = {}
        #: host servers this client asked a steering lock of through this
        #: server (→ one of the applications asked for); each hears of its
        #: exit
        self.remote_locks: Dict[str, str] = {}
        #: messages dropped because the FIFO buffer was full (slow client)
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ClientSession {self.client_id} user={self.user}>"


class CollaborationManager:
    """The collaboration handler of one server (local fan-out only).

    Client ids are globally unique — ``<server>:cN`` — so any server in the
    network can tell which server owns a client (the routing key for
    cross-server response delivery).
    """

    def __init__(self, sim: "Simulator", server_name: str,
                 buffer_capacity: float = float("inf"),
                 journal=NULL_JOURNAL) -> None:
        self.sim = sim
        self.server_name = server_name
        self.buffer_capacity = buffer_capacity
        self.journal = journal
        self._sessions: Dict[str, ClientSession] = {}
        #: (app_id, group) → set of client_ids
        self._groups: Dict[Tuple[str, str], Set[str]] = {}
        self._client_count = 0
        #: total messages pushed into client buffers
        self.delivered = 0
        #: total messages dropped on full buffers
        self.dropped = 0

    @staticmethod
    def owner_server(client_id: str) -> str:
        """The server a client id belongs to."""
        return client_id.rsplit(":", 1)[0]

    # -- sessions ------------------------------------------------------------
    def create_session(self, user: str) -> ClientSession:
        self._client_count += 1
        client_id = f"{self.server_name}:c{self._client_count}"
        session = ClientSession(self.sim, client_id, user,
                                self.buffer_capacity)
        self._sessions[client_id] = session
        self.journal.append("collab.session", {
            "client_id": client_id, "user": user,
            "seq": self._client_count})
        return session

    def _restore_session(self, client_id: str, user: str,
                         seq: int = 0) -> ClientSession:
        """Rebuild a session under its original id (recovery path).

        The FIFO buffer comes back empty — poll state is transient; a
        recovered client catches up through the session archive instead.
        """
        session = ClientSession(self.sim, client_id, user,
                                self.buffer_capacity)
        self._sessions[client_id] = session
        self._client_count = max(self._client_count, seq)
        return session

    def session(self, client_id: str) -> ClientSession:
        try:
            return self._sessions[client_id]
        except KeyError:
            raise CollaborationError(f"no session {client_id!r}") from None

    def drop_session(self, client_id: str) -> Optional[ClientSession]:
        """End a session; returns it (apps still populated) so the caller
        can release interest the client held — e.g. unsubscribing from
        remote applications it was the last local subscriber of."""
        session = self._sessions.pop(client_id, None)
        if session is None:
            return None
        for key in list(session.groups):
            members = self._groups.get(key)
            if members:
                members.discard(client_id)
                if not members:
                    del self._groups[key]
        self.journal.append("collab.drop", {"client_id": client_id})
        return session

    def session_count(self) -> int:
        return len(self._sessions)

    # -- membership ----------------------------------------------------------
    def subscribe(self, client_id: str, app_id: str) -> None:
        """Join the application's default collaboration group."""
        session = self.session(client_id)
        session.apps.add(app_id)
        self._join(session, app_id, DEFAULT_GROUP)
        self.journal.append("collab.subscribe",
                            {"client_id": client_id, "app_id": app_id})

    def unsubscribe(self, client_id: str, app_id: str) -> None:
        session = self.session(client_id)
        session.apps.discard(app_id)
        for key in [k for k in session.groups if k[0] == app_id]:
            self._leave(session, *key)
        self.journal.append("collab.unsubscribe",
                            {"client_id": client_id, "app_id": app_id})

    def join_group(self, client_id: str, app_id: str, group: str) -> None:
        """Join (creating if needed) a sub-group of an application group."""
        session = self.session(client_id)
        if app_id not in session.apps:
            raise CollaborationError(
                f"{client_id} is not subscribed to {app_id}")
        self._join(session, app_id, group)
        self.journal.append("collab.join", {
            "client_id": client_id, "app_id": app_id, "group": group})

    def leave_group(self, client_id: str, app_id: str, group: str) -> None:
        if group == DEFAULT_GROUP:
            raise CollaborationError(
                "leave the default group by unsubscribing from the app")
        self._leave(self.session(client_id), app_id, group)
        self.journal.append("collab.leave", {
            "client_id": client_id, "app_id": app_id, "group": group})

    def _join(self, session: ClientSession, app_id: str, group: str) -> None:
        key = (app_id, group)
        self._groups.setdefault(key, set()).add(session.client_id)
        session.groups.add(key)

    def _leave(self, session: ClientSession, app_id: str, group: str) -> None:
        key = (app_id, group)
        members = self._groups.get(key)
        if members:
            members.discard(session.client_id)
            if not members:
                del self._groups[key]
        session.groups.discard(key)

    def members_of(self, app_id: str, group: str = DEFAULT_GROUP) -> List[str]:
        return sorted(self._groups.get((app_id, group), ()))

    def local_subscribers(self, app_id: str) -> List[str]:
        """Client ids of local sessions subscribed to ``app_id``."""
        return [s.client_id for s in self._sessions.values()
                if app_id in s.apps]

    def set_collaboration(self, client_id: str, enabled: bool) -> None:
        """Enable/disable sharing of this client's requests and responses."""
        self.session(client_id).collab_enabled = bool(enabled)
        self.journal.append("collab.mode", {
            "client_id": client_id, "enabled": bool(enabled)})

    # -- durable state plane hooks -------------------------------------------
    def snapshot_state(self) -> dict:
        """Serialize sessions + memberships to a JSON-safe document.

        FIFO buffers and remote-app summaries are deliberately absent:
        both are transient poll state, re-established by the client after
        recovery (the archive serves the catch-up).
        """
        return {
            "seq": self._client_count,
            "sessions": [{
                "client_id": s.client_id,
                "user": s.user,
                "collab_enabled": s.collab_enabled,
                "apps": sorted(s.apps),
                "groups": sorted(list(k) for k in s.groups),
            } for s in self._sessions.values()],
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild sessions + memberships from :meth:`snapshot_state`."""
        self._client_count = max(self._client_count,
                                 state.get("seq", 0))
        for doc in state.get("sessions", ()):
            session = self._restore_session(doc["client_id"], doc["user"])
            session.collab_enabled = doc.get("collab_enabled", True)
            session.apps = set(doc.get("apps", ()))
            for app_id, group in doc.get("groups", ()):
                self._join(session, app_id, group)

    def apply_event(self, event: str, data: dict, at: float) -> None:
        """Replay one journaled mutation (public paths; the journal's
        ``recovering`` flag keeps them from re-journaling)."""
        if event == "session":
            self._restore_session(data["client_id"], data["user"],
                                  data.get("seq", 0))
        elif event == "drop":
            self.drop_session(data["client_id"])
        elif event == "subscribe":
            self.subscribe(data["client_id"], data["app_id"])
        elif event == "unsubscribe":
            self.unsubscribe(data["client_id"], data["app_id"])
        elif event == "join":
            self.join_group(data["client_id"], data["app_id"], data["group"])
        elif event == "leave":
            self.leave_group(data["client_id"], data["app_id"], data["group"])
        elif event == "mode":
            self.set_collaboration(data["client_id"], data["enabled"])

    # -- fan-out ------------------------------------------------------------
    def push_to_client(self, client_id: str, msg: Message) -> bool:
        """Append to one client's FIFO buffer; False if dropped (full).

        The message's wire size is frozen (memoized) here: a message fanned
        out to N subscribers is sized once, not once per poll response it
        later rides in.  Messages must not be mutated after this point.
        """
        session = self._sessions.get(client_id)
        if session is None:
            return False
        freeze_size(msg)
        if not session.buffer.try_put(msg):
            session.dropped += 1
            self.dropped += 1
            return False
        self.delivered += 1
        return True

    def broadcast_update(self, app_id: str, msg: Message) -> int:
        """Global update to every local subscriber; returns deliveries."""
        count = 0
        for client_id in self.local_subscribers(app_id):
            if self.push_to_client(client_id, msg):
                count += 1
        return count

    def broadcast_group(self, app_id: str, group: str, msg: Message,
                        exclude: Optional[str] = None) -> int:
        """Deliver to a (sub-)group's local members."""
        count = 0
        for client_id in self.members_of(app_id, group):
            if client_id == exclude:
                continue
            if self.push_to_client(client_id, msg):
                count += 1
        return count

    def deliver_response(self, client_id: str, msg: Message,
                         app_id: Optional[str] = None) -> int:
        """Deliver a command response to its requester — and, if the
        requester has collaboration enabled, share it with the rest of the
        application group (collaborative steering)."""
        count = 1 if self.push_to_client(client_id, msg) else 0
        session = self._sessions.get(client_id)
        if (session is not None and session.collab_enabled
                and app_id is not None):
            count += self.broadcast_group(app_id, DEFAULT_GROUP, msg,
                                          exclude=client_id)
        return count

    def share_view(self, from_client: str, app_id: str, group: str,
                   msg: Message) -> int:
        """Explicit share — works even with collaboration disabled (§4.1)."""
        self.session(from_client)  # validate
        return self.broadcast_group(app_id, group, msg, exclude=from_client)
