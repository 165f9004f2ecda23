"""App placement: the paper's §5.2.1 ``<server>#a<seq>`` app-id convention.

An app id names its home server.  :func:`make_app_id` mints one (the
daemon) and :func:`home_server_of` reads the server back (federation);
these two functions are the *only* code allowed to build or parse an app
id (the facade rule of ``tools/check_pipeline_boundary.py`` rejects
``.split("#")`` outside :mod:`repro.directory`).
"""

from __future__ import annotations

SEPARATOR = "#"


def home_server_of(app_id: str) -> str:
    """Name of the server hosting ``app_id``."""
    return app_id.split(SEPARATOR, 1)[0]


def make_app_id(server: str, seq: int) -> str:
    """Mint the id for the ``seq``-th app registered at ``server``."""
    return f"{server}{SEPARATOR}a{seq}"
