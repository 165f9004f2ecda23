"""Server-side HTTP sessions.

The master servlet "creates a session object for each connecting client and
uses it to maintain information about client-server-application sessions"
(§4.1).  Sessions are identified by an opaque cookie.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional


class HttpSession:
    """One client's server-side state, addressed by its cookie."""

    def __init__(self, session_id: str, created_at: float) -> None:
        self.session_id = session_id
        self.created_at = created_at
        self.last_access = created_at
        self.attributes: Dict[str, Any] = {}

    def get(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def __contains__(self, key: str) -> bool:
        return key in self.attributes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<HttpSession {self.session_id}>"


class SessionManager:
    """Creates, resolves, and expires sessions for one container."""

    def __init__(self, timeout: float = 1800.0,
                 on_expire: Optional[Callable[[HttpSession], None]] = None
                 ) -> None:
        self.timeout = timeout
        #: told each session dropped for idleness, once, on either expiry
        #: path (``invalidate`` is the owner's own doing and tells nobody)
        self.on_expire = on_expire
        #: sessions dropped for idleness so far
        self.expired = 0
        self._sessions: Dict[str, HttpSession] = {}

    def create(self, now: float, session_id: str) -> HttpSession:
        """Create a fresh session under the cookie ``session_id``."""
        session = HttpSession(session_id, now)
        self._sessions[session_id] = session
        return session

    def resolve(self, cookie: str, now: float) -> Optional[HttpSession]:
        """Return the live session for ``cookie`` (touching it), or None."""
        session = self._sessions.get(cookie)
        if session is None:
            return None
        if now - session.last_access > self.timeout:
            self._expire(cookie)
            return None
        session.last_access = now
        return session

    def invalidate(self, cookie: str) -> None:
        """Drop a session (logout)."""
        self._sessions.pop(cookie, None)

    def expire_stale(self, now: float) -> int:
        """Drop every session idle past the timeout; returns how many."""
        stale = [sid for sid, s in self._sessions.items()
                 if now - s.last_access > self.timeout]
        for sid in stale:
            self._expire(sid)
        return len(stale)

    def _expire(self, sid: str) -> None:
        session = self._sessions.pop(sid)
        self.expired += 1
        if self.on_expire is not None:
            self.on_expire(session)

    def __len__(self) -> int:
        return len(self._sessions)
