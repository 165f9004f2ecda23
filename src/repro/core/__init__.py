"""The DISCOVER middleware: servers, proxies, security, locks, archival.

Public surface of the paper's primary contribution: the interaction and
collaboration server (:class:`DiscoverServer`), its per-application context
(:class:`ApplicationProxy`), the two CORBA interface levels
(:class:`DiscoverCorbaServerServant`, :class:`CorbaProxyServant`), and the
supporting managers.
"""

from repro.core.archival import SessionArchive
from repro.core.collaboration import (
    DEFAULT_GROUP,
    ClientSession,
    CollaborationError,
    CollaborationManager,
)
from repro.core.corba import CorbaProxyServant, DiscoverCorbaServerServant
from repro.core.daemon import DaemonService
from repro.core.database import Database, Record, Table
from repro.core.locking import LockError, LockManager, SteeringLock
from repro.core.proxy import ApplicationProxy
from repro.core.security import (
    MUTATING_COMMANDS,
    READ,
    WRITE,
    AccessControlList,
    SecurityError,
    SecurityManager,
    required_privilege,
)
from repro.core.server import SERVICE_ID, DiscoverServer

__all__ = [
    "AccessControlList",
    "ApplicationProxy",
    "ClientSession",
    "CollaborationError",
    "CollaborationManager",
    "CorbaProxyServant",
    "DEFAULT_GROUP",
    "DaemonService",
    "Database",
    "DiscoverCorbaServerServant",
    "DiscoverServer",
    "LockError",
    "LockManager",
    "MUTATING_COMMANDS",
    "READ",
    "Record",
    "SERVICE_ID",
    "SecurityError",
    "SecurityManager",
    "SessionArchive",
    "SteeringLock",
    "Table",
    "WRITE",
    "required_privilege",
]
