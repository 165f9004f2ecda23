"""IDL declarations of the middleware's two interface levels.

§3: "The middleware architecture defines a simple protocol requiring two
levels of interfaces and interactions for each server.  The first level
interfaces provide a means for peer servers to authenticate with the server
and query it for active services, applications and users.  The second level
interfaces define interactions with the active services and/or applications
at the server."

These declarations are the contract the servants in
:mod:`repro.core.corba` implement (validated at server construction) and
that peer servers consume through typed stubs.
"""

from __future__ import annotations

from repro.orb.idl import Interface, Operation

#: Level one — the server's gateway for all other DISCOVER servers (§5.1.1)
DISCOVER_CORBA_SERVER = Interface("DiscoverCorbaServer", (
    Operation("ping", (), doc="liveness probe; returns the server name"),
    Operation("authenticate_and_list", ("user",),
              doc="authenticate + list applications the user can access"),
    Operation("get_active_applications", (),
              doc="summaries of active local applications"),
    Operation("get_users", (), doc="users with live sessions here"),
    Operation("get_corba_proxy", ("app_id",),
              doc="reference to a local application's CorbaProxy"),
    Operation("deliver_to_client", ("client_id", "msg"), oneway=True,
              doc="push a response/notification for a client homed here"),
    Operation("deliver_update", ("app_id", "msg"), oneway=True,
              doc="push an application update for local subscribers"),
    Operation("deliver_group_message", ("app_id", "group", "msg"),
              oneway=True,
              doc="push a chat/whiteboard/shared-view group message"),
    Operation("exchange_health", ("server_name", "view"),
              doc="gossip: merge a peer's health view, return ours"),
))

#: Level two — one application's gateway for all other servers (§5.1.2)
CORBA_PROXY = Interface("CorbaProxy", (
    Operation("get_interface", ("user",),
              doc="second-level auth + customized steering interface"),
    Operation("get_status", (), doc="proxy-level application status"),
    Operation("deliver_command",
              ("user", "client_id", "command", "args", "request_id"),
              doc="relay a remote client's steering command"),
    Operation("acquire_lock", ("client_id",),
              doc="steering-lock acquire, relayed to the host server"),
    Operation("release_lock", ("client_id",), doc="steering-lock release"),
    Operation("lock_holder", (), doc="current driver of the application"),
    Operation("drop_client", ("client_id",),
              doc="a remote client left: release / dequeue all it holds here"),
    Operation("get_updates_since", ("seq",),
              doc="poll-mode update retrieval (§5.2.3's polling design)"),
    Operation("subscribe_server", ("server_name",),
              doc="subscribe a peer server to pushed updates"),
    Operation("unsubscribe_server", ("server_name",),
              doc="remove a peer's update subscription"),
    Operation("publish_group_message", ("group", "msg"),
              doc="fan a group message out from the home server"),
    Operation("replay_interactions", ("user", "since", "limit"),
              doc="archived client↔app interactions from the home server"),
    Operation("replay_app_log", ("user", "since", "limit"),
              doc="the application's archived history from the home server"),
    Operation("latecomer_catchup", ("user", "n"),
              doc="recent group interactions for a late joiner (§5.2.5)"),
))
