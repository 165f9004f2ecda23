"""CORBA naming service (CosNaming, abridged).

DISCOVER binds every application's ``CorbaProxy`` here "using the
application's unique identifier as the name.  This allows the application to
be remotely accessed from any server" (§5.1.2).
"""

from __future__ import annotations

from typing import Dict

from repro.orb.errors import ObjectNotFound, OrbError
from repro.orb.reference import ObjectRef


class NamingService:
    """Flat name → :class:`ObjectRef` registry, exposed as an ORB servant.

    A real CosNaming has hierarchical contexts; DISCOVER only ever uses a
    flat namespace of globally-unique application ids and server names, so
    that is what we build.  Deployed once per server network on a well-known
    host (or replicated — the middleware only needs *a* reachable instance).
    """

    #: conventional object key for the naming servant
    OBJECT_KEY = "NameService"

    def __init__(self) -> None:
        self._bindings: Dict[str, ObjectRef] = {}

    def bind(self, name: str, ref: ObjectRef) -> bool:
        """Bind ``name``; error if already bound (CosNaming AlreadyBound)."""
        if name in self._bindings:
            raise OrbError(f"name {name!r} already bound")
        self._bindings[name] = ref
        return True

    def rebind(self, name: str, ref: ObjectRef) -> bool:
        """Bind ``name``, replacing any existing binding."""
        self._bindings[name] = ref
        return True

    def resolve(self, name: str) -> ObjectRef:
        """Return the reference bound to ``name``."""
        try:
            return self._bindings[name]
        except KeyError:
            raise ObjectNotFound(f"name {name!r} not bound") from None

    def __len__(self) -> int:
        return len(self._bindings)

    def __contains__(self, name: str) -> bool:
        return name in self._bindings
