"""Tests for the naming service and the trader layered on it."""

import pytest

from repro.net import Network
from repro.orb import (
    NamingService,
    ObjectNotFound,
    ObjectRef,
    Orb,
    OrbError,
    ServiceOffer,
    TraderService,
)
from repro.sim import Simulator
from tests.conftest import drive


def ref(key, host="h", port=683):
    return ObjectRef(host, port, key)


# ----------------------------- NamingService ------------------------------

def test_bind_resolve():
    ns = NamingService()
    r = ref("app-1")
    ns.bind("app-1", r)
    assert ns.resolve("app-1") == r


def test_bind_duplicate_rejected():
    ns = NamingService()
    ns.bind("x", ref("x"))
    with pytest.raises(OrbError):
        ns.bind("x", ref("x2"))


def test_rebind_replaces():
    ns = NamingService()
    ns.bind("x", ref("x"))
    ns.rebind("x", ref("x2"))
    assert ns.resolve("x").object_key == "x2"


def test_resolve_missing():
    ns = NamingService()
    with pytest.raises(ObjectNotFound):
        ns.resolve("ghost")


# ------------------------------- Trader --------------------------------

def test_trader_export_and_query():
    ns = NamingService()
    trader = TraderService(ns)
    offer = ServiceOffer(1, "DISCOVER", ref("srv-1"), {"domain": "rutgers"})
    oid = trader.export(offer)
    found = trader.query_now("DISCOVER")
    assert [o.offer_id for o in found] == [oid]


def test_trader_stores_offers_through_naming():
    """The paper's layering: trader offers are visible as naming bindings."""
    ns = NamingService()
    trader = TraderService(ns)
    offer = ServiceOffer(1, "DISCOVER", ref("srv-1"))
    trader.export(offer)
    assert len(ns) == 1
    assert ns.resolve(f"trader/DISCOVER/{offer.offer_id}") == offer.ref


def test_trader_query_filters_by_service_id():
    ns = NamingService()
    trader = TraderService(ns)
    trader.export(ServiceOffer(1, "DISCOVER", ref("srv-1")))
    trader.export(ServiceOffer(2, "ARCHIVE", ref("arch-1")))
    assert len(trader.query_now("DISCOVER")) == 1
    assert len(trader.query_now("ARCHIVE")) == 1
    assert trader.query_now("NOPE") == []


def test_trader_query_property_constraints():
    ns = NamingService()
    trader = TraderService(ns)
    trader.export(ServiceOffer(1, "DISCOVER", ref("s1"), {"domain": "rutgers",
                                                          "ssl": True}))
    trader.export(ServiceOffer(2, "DISCOVER", ref("s2"), {"domain": "caltech",
                                                          "ssl": True}))
    hit = trader.query_now("DISCOVER", {"domain": "rutgers"})
    assert [o.ref.object_key for o in hit] == ["s1"]
    both = trader.query_now("DISCOVER", {"ssl": True})
    assert len(both) == 2
    none = trader.query_now("DISCOVER", {"domain": "mars"})
    assert none == []


def test_trader_offer_count():
    ns = NamingService()
    trader = TraderService(ns)
    trader.export(ServiceOffer(1, "DISCOVER", ref("s1")))
    trader.export(ServiceOffer(2, "DISCOVER", ref("s2")))
    trader.export(ServiceOffer(3, "OTHER", ref("o1")))
    assert trader.offer_count() == 3
    assert len(trader.query_now("DISCOVER")) == 2


def test_trader_timed_query_charges_per_offer(sim):
    ns = NamingService()
    trader = TraderService(ns, sim=sim, match_cost=0.01)
    for i in range(10):
        trader.export(ServiceOffer(i, "DISCOVER", ref(f"s{i}")))

    def run_query():
        matches = yield from trader.query("DISCOVER")
        return (len(matches), sim.now)

    n, elapsed = drive(sim, run_query())
    assert n == 10
    assert elapsed == pytest.approx(0.10)


# ----------------------- Remote naming/trader via ORB -----------------------

def test_naming_and_trader_as_remote_servants():
    sim = Simulator()
    net = Network(sim)
    net.add_host("registry")
    net.add_host("peer")
    net.add_link("registry", "peer", 0.005)
    registry_orb = Orb(net.hosts["registry"])
    peer_orb = Orb(net.hosts["peer"])

    ns = NamingService()
    trader = TraderService(ns, sim=sim, match_cost=0.001)
    ns_ref = registry_orb.activate(ns, key=NamingService.OBJECT_KEY)
    tr_ref = registry_orb.activate(trader, key=TraderService.OBJECT_KEY)

    def peer_process():
        # Export my offer remotely, then discover myself.
        my_ref = ObjectRef("peer", 683, "DiscoverCorbaServer")
        offer = ServiceOffer(1, "DISCOVER", my_ref, {"domain": "peer-domain"})
        yield from peer_orb.invoke(tr_ref, "export", offer)
        offers = yield from peer_orb.invoke(tr_ref, "query", "DISCOVER")
        resolved = yield from peer_orb.invoke(
            ns_ref, "resolve", f"trader/DISCOVER/{offer.offer_id}")
        return (len(offers), offers[0].ref == my_ref, resolved == my_ref)

    assert drive(sim, peer_process()) == (1, True, True)
