"""App placement behind a pluggable ``Placement`` abstraction.

Before this package, the ``server#aN`` app-id convention was hardcoded
in two places: ``core/daemon.py`` minted ids with an f-string and
``federation/registry.py`` split them back apart.  Both now delegate to
the process-wide :class:`Placement`, so a deployment can swap the
scheme (hashed placement, externally-assigned homes, ...) without
touching federation or the daemon.

``home_server_of`` stays importable from ``repro.federation.registry``
and ``repro.core.daemon`` as a façade over this module — but the *only*
code allowed to parse an app id is :class:`PrefixPlacement` here (the
facade rule of ``tools/check_pipeline_boundary.py`` rejects
``.split("#")`` outside :mod:`repro.directory`).
"""

from __future__ import annotations


class Placement:
    """Maps app ids to home servers and mints new app ids."""

    def home_of(self, app_id: str) -> str:
        """Name of the server hosting ``app_id``."""
        raise NotImplementedError

    def make_app_id(self, server: str, seq: int) -> str:
        """Mint the id for the ``seq``-th app registered at ``server``."""
        raise NotImplementedError


class PrefixPlacement(Placement):
    """The paper's §5.2.1 convention: ``<server>#a<seq>``."""

    separator = "#"

    def home_of(self, app_id: str) -> str:
        return app_id.split(self.separator, 1)[0]

    def make_app_id(self, server: str, seq: int) -> str:
        return f"{server}{self.separator}a{seq}"


_placement: Placement = PrefixPlacement()


def get_placement() -> Placement:
    """The process-wide placement scheme."""
    return _placement


def set_placement(placement: Placement) -> Placement:
    """Install ``placement`` process-wide; returns the previous one."""
    global _placement
    previous = _placement
    _placement = placement
    return previous


def home_server_of(app_id: str) -> str:
    """Name of the server hosting ``app_id`` (façade over Placement)."""
    return _placement.home_of(app_id)


def make_app_id(server: str, seq: int) -> str:
    """Mint an app id at ``server`` (façade over Placement)."""
    return _placement.make_app_id(server, seq)
