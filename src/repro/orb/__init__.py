"""A miniature Object Request Broker — the reproduction's CORBA.

The DISCOVER middleware substrate "builds on CORBA/IIOP, which provides
peer-to-peer connectivity between DISCOVER servers within and across
domains" (§4.2), locates servers through the **CORBA trader service** and
applications through the **CORBA naming service** (§5.2.1).  This package
rebuilds exactly the pieces the paper uses:

- :class:`Orb` — one broker per host; exposes servants through an object
  adapter and invokes remote operations with request/reply correlation
  (:mod:`repro.orb.giop` is the wire protocol).
- :class:`ObjectRef` — an IOR-like reference ``(host, port, object_key)``
  that can itself travel over the wire.
- :class:`NamingService` — bind/rebind/resolve of name → reference.
- :class:`TraderService` — the paper's "minimalist trader service on top of
  the CORBA naming service": service-offer pairs with property lists,
  queried by service id (all DISCOVER servers export service id
  ``"DISCOVER"``).

Every invocation charges the *server* host CPU the CORBA dispatch cost from
the :class:`~repro.net.costs.CostModel` — this is where §6.2's "CORBA ...
reduces performance when compared to a lower level socket based system"
comes from, and experiment E11 measures it.
"""

from repro.orb.adapter import ObjectAdapter
from repro.orb.core import Orb
from repro.orb.errors import (
    BadOperation,
    CommFailure,
    ObjectNotFound,
    OrbError,
    RemoteException,
)
from repro.orb.naming import NamingService
from repro.orb.reference import ObjectRef
from repro.orb.trader import ServiceOffer, TraderService

__all__ = [
    "BadOperation",
    "CommFailure",
    "NamingService",
    "ObjectAdapter",
    "ObjectNotFound",
    "ObjectRef",
    "Orb",
    "OrbError",
    "RemoteException",
    "ServiceOffer",
    "TraderService",
]
