"""Object adapter: the servant registry of one ORB."""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.orb.errors import ObjectNotFound, OrbError
from repro.orb.reference import ObjectRef

_auto_keys = itertools.count(1)


class ObjectAdapter:
    """Maps object keys to live servant objects.

    A *servant* is any Python object; its public methods are the remotely
    invocable operations.  Methods may be plain (return a value) or
    generator functions (simulation processes that yield, e.g. to forward a
    request onward) — the ORB runs either transparently.
    """

    def __init__(self, host_name: str, port: int) -> None:
        self.host_name = host_name
        self.port = port
        self._servants: Dict[str, Any] = {}

    def activate(self, servant: Any, key: Optional[str] = None,
                 type_id: str = "") -> ObjectRef:
        """Register ``servant`` and return its reference."""
        if key is None:
            key = f"obj-{next(_auto_keys)}"
        if key in self._servants:
            raise OrbError(f"object key {key!r} already active")
        self._servants[key] = servant
        if not type_id:
            type_id = type(servant).__name__
        return ObjectRef(self.host_name, self.port, key, type_id)

    def deactivate(self, key: str) -> None:
        """Remove the servant behind ``key``."""
        if key not in self._servants:
            raise ObjectNotFound(f"no active object {key!r}")
        del self._servants[key]

    def servant(self, key: str) -> Any:
        """Look up the servant for ``key``."""
        try:
            return self._servants[key]
        except KeyError:
            raise ObjectNotFound(f"no active object {key!r}") from None
