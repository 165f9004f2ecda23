"""Sharded, replicated directory plane (PR 7).

The paper's §6.3 GIS-style directory and the ``server#aN`` home-server
convention were the last single-logical-registry assumptions in the
codebase.  This package scales both out:

- :mod:`repro.directory.ring` — consistent-hash ring with virtual nodes
  and an explicit epoch, mapping directory keys (user names, app ids)
  to shard servers.
- :mod:`repro.directory.placement` — the §5.2.1 app-id convention:
  ``make_app_id`` (the daemon mints) and ``home_server_of`` (federation
  resolves ``app_id -> home server``); *no other module may parse app
  ids* (the directory owner of the facade rule in
  ``tools/check_pipeline_boundary.py`` rejects ``.split("#")``).
- :mod:`repro.directory.shard` — the ORB servant holding one shard of
  the user-directory + app-location maps (the storage half of the old
  ``UserDirectoryService``).
- :mod:`repro.directory.client` — ``DirectoryClient``: write-through to
  all R replicas, health-aware read failover, bounded stub cache with
  ring-epoch invalidation (the lookup half of the old service).
- :mod:`repro.directory.plane` — ``DirectoryPlane``: deploys the shard
  servants onto hosts, owns the live ref table and the ring, hands out
  per-server clients, kills/restarts replicas for fault drills.

Everything outside this package goes through the façade below; its
``__all__`` is the boundary (ring and shard internals are not in it).
"""

from repro.directory.placement import home_server_of, make_app_id
from repro.directory.client import DirectoryClient
from repro.directory.plane import DirectoryPlane

__all__ = [
    "home_server_of",
    "make_app_id",
    "DirectoryClient",
    "DirectoryPlane",
]
