"""Two-level security: server access + per-application ACLs.

Paper §5.2.2/§6.3: applications register with "a list of users and their
access privileges (e.g. read-only, read-write)", which the server turns
into per user-application ACLs.  A user may log in to a server only if they
appear on the ACL of at least one application registered there.  User-ids
"do not belong to a server but to an application/service", so they are
consistent network-wide.
"""

from __future__ import annotations

from typing import Dict, Optional

#: privilege levels, ordered: read-only monitoring vs read-write steering
READ = "read"
WRITE = "write"
_LEVEL = {READ: 1, WRITE: 2}

#: commands that require WRITE privilege (and, server-side, the lock)
MUTATING_COMMANDS = frozenset({"set_param", "actuate", "pause", "resume",
                               "stop"})


class SecurityError(Exception):
    """Authentication or authorization failure."""


def privilege_level(privilege: str) -> int:
    """Numeric ordering of privilege names."""
    try:
        return _LEVEL[privilege]
    except KeyError:
        raise SecurityError(f"unknown privilege {privilege!r}") from None


def required_privilege(command: str) -> str:
    """Privilege a steering command needs."""
    return WRITE if command in MUTATING_COMMANDS else READ


class AccessControlList:
    """user → privilege for one application."""

    def __init__(self, entries: Optional[Dict[str, str]] = None) -> None:
        self._entries: Dict[str, str] = {}
        for user, priv in (entries or {}).items():
            self.grant(user, priv)

    def grant(self, user: str, privilege: str) -> None:
        privilege_level(privilege)  # validates
        self._entries[user] = privilege

    def privilege_of(self, user: str) -> Optional[str]:
        return self._entries.get(user)

    def allows(self, user: str, privilege: str) -> bool:
        """True if ``user`` holds at least ``privilege``."""
        held = self._entries.get(user)
        if held is None:
            return False
        return privilege_level(held) >= privilege_level(privilege)

    def __contains__(self, user: str) -> bool:
        return user in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class SecurityManager:
    """The per-server security handler (paper's Security/Auth servlet).

    Application registration installs its ACL; user authentication checks
    membership in the union of registered ACLs; application access checks
    the specific ACL and returns the effective privilege.
    """

    def __init__(self) -> None:
        self._app_acls: Dict[str, AccessControlList] = {}
        #: pre-assigned application authentication tokens (§4.1: "Each
        #: application is authenticated at the server using a pre-assigned
        #: unique identifier").  Empty means any token is accepted (open
        #: deployment), which benchmarks use.
        self.app_tokens: Dict[str, str] = {}

    # -- applications ------------------------------------------------------
    def authenticate_application(self, app_name: str, token: str) -> bool:
        """First-level auth for a connecting application."""
        expected = self.app_tokens.get(app_name)
        return expected is None or expected == token

    def register_app_acl(self, app_id: str, acl: Dict[str, str]) -> None:
        self._app_acls[app_id] = AccessControlList(acl)

    # -- users ---------------------------------------------------------------
    def user_known(self, user: str) -> bool:
        """Level-one check: user appears on at least one app's ACL here."""
        return any(user in acl for acl in self._app_acls.values())

    def authenticate_user(self, user: str, password: str = "") -> bool:
        """Level-one authentication.

        The paper's prototype trusts the application-supplied user lists
        ("Once a user-ID is supplied, a server will automatically
        authenticate that user-ID", §6.3) — passwords ride on SSL but the
        authorization decision is ACL membership, which is what we enforce.
        """
        return self.user_known(user)

    def app_privilege(self, user: str, app_id: str) -> Optional[str]:
        """Level-two: the user's privilege on one application (None=none)."""
        acl = self._app_acls.get(app_id)
        if acl is None:
            return None
        return acl.privilege_of(user)

    def authorize_command(self, user: str, app_id: str, command: str) -> None:
        """Raise :class:`SecurityError` unless ``user`` may run ``command``."""
        acl = self._app_acls.get(app_id)
        if acl is None:
            raise SecurityError(f"unknown application {app_id!r}")
        needed = required_privilege(command)
        if not acl.allows(user, needed):
            raise SecurityError(
                f"user {user!r} lacks {needed!r} privilege on {app_id!r}")

    def accessible_apps(self, user: str) -> Dict[str, str]:
        """app_id → privilege for every local app the user can access."""
        result = {}
        for app_id, acl in self._app_acls.items():
            priv = acl.privilege_of(user)
            if priv is not None:
                result[app_id] = priv
        return result
