"""CORBA trader service — the paper's "minimalist trader".

§5.2.1: "In our prototype we have implemented a minimalist trader service on
top of the CORBA naming service.  All DISCOVER servers are identified by the
service-id 'DISCOVER'.  The service offer ... encapsulates the CORBA object
reference and a list of properties defined as name-value pairs.  Thus an
object can be identified based on the service it provides or its properties
list."

We reproduce that layering: offers are *stored through a NamingService
instance* under ``trader/<service-id>/<n>`` names, with the property lists
kept in a side table, and queries match on service id plus property
constraints.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.orb.errors import ObjectNotFound
from repro.orb.naming import NamingService
from repro.orb.reference import ObjectRef
from repro.wire.serialize import register_codec

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator


@register_codec
class ServiceOffer:
    """A service-offer pair: reference + name-value property list.

    Its exporter numbers it: ``offer_id`` is ``offer-<seq>``, ``seq`` the
    exporter's simulation's next ``"offer"`` id.
    """

    def __init__(self, seq: int, service_id: str, ref: ObjectRef,
                 properties: Optional[dict] = None) -> None:
        self.service_id = service_id
        self.ref = ref
        self.properties = properties or {}
        self.offer_id = f"offer-{seq}"

    def matches(self, constraints: Optional[dict]) -> bool:
        """True if every constraint name-value pair equals a property."""
        if not constraints:
            return True
        return all(self.properties.get(k) == v for k, v in constraints.items())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ServiceOffer {self.service_id} {self.offer_id} {self.ref}>"


class TraderService:
    """Service discovery by service id and property constraints.

    Layered on a :class:`NamingService` exactly like the paper's prototype:
    each exported offer's reference is bound under
    ``trader/<service_id>/<offer_id>``, so a plain naming listing shows the
    trader's whole catalogue.

    If ``sim`` and ``match_cost`` are supplied, ``query`` is served as a
    simulation process charging ``match_cost`` per offer examined —
    experiment E7 measures how discovery cost grows with registry size.
    """

    OBJECT_KEY = "TradingService"

    def __init__(self, naming: NamingService,
                 sim: Optional["Simulator"] = None,
                 match_cost: float = 0.0) -> None:
        self.naming = naming
        self.sim = sim
        self.match_cost = match_cost
        self._offers: Dict[str, ServiceOffer] = {}

    # -- exporters ----------------------------------------------------------
    def export(self, offer: ServiceOffer) -> str:
        """Publish an offer; returns its offer id."""
        self._offers[offer.offer_id] = offer
        self.naming.rebind(self._name_for(offer), offer.ref)
        return offer.offer_id

    def withdraw(self, offer_id: str) -> bool:
        """Remove a previously exported offer."""
        offer = self._offers.pop(offer_id, None)
        if offer is None:
            raise ObjectNotFound(f"no offer {offer_id!r}")
        try:
            self.naming.unbind(self._name_for(offer))
        except ObjectNotFound:  # pragma: no cover - defensive
            pass
        return True

    @staticmethod
    def _name_for(offer: ServiceOffer) -> str:
        return f"trader/{offer.service_id}/{offer.offer_id}"

    # -- importers -----------------------------------------------------------
    def query_now(self, service_id: str,
                  constraints: Optional[dict] = None) -> List[ServiceOffer]:
        """Immediate (untimed) query — the pure matching logic."""
        return [o for o in self._offers.values()
                if o.service_id == service_id and o.matches(constraints)]

    def query(self, service_id: str, constraints: Optional[dict] = None):
        """All offers for ``service_id`` whose properties satisfy
        ``constraints``.  Served as a simulation process charging
        ``match_cost`` per offer examined when timing is enabled."""
        matches = self.query_now(service_id, constraints)
        if self.sim is not None and self.match_cost > 0 and self._offers:
            yield self.sim.timeout(self.match_cost * len(self._offers))
        return matches

    def offer_count(self, service_id: Optional[str] = None) -> int:
        """Number of exported offers (optionally for one service id)."""
        if service_id is None:
            return len(self._offers)
        return sum(1 for o in self._offers.values()
                   if o.service_id == service_id)
