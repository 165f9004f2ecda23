"""Tests for the IDL layer: interfaces, servant validation, typed stubs."""

import pytest

from repro.core.interfaces import CORBA_PROXY, DISCOVER_CORBA_SERVER
from repro.net import Network
from repro.orb import BadOperation, Orb, OrbError
from repro.orb.idl import Interface, Operation, make_stub, validate_servant
from repro.sim import Simulator
from tests.conftest import drive

CALC = Interface("Calculator", (
    Operation("add", ("a", "b")),
    Operation("notify", ("event",), oneway=True),
))


class GoodCalc:
    def __init__(self):
        self.events = []

    def add(self, a, b):
        return a + b

    def notify(self, event):
        self.events.append(event)


# ------------------------------ interfaces ---------------------------------

def test_interface_lookup():
    op = CALC.operation("add")
    assert op.params == ("a", "b")
    assert not op.oneway
    assert CALC.operation("notify").oneway
    assert "add" in CALC
    assert "divide" not in CALC


def test_interface_unknown_operation():
    with pytest.raises(BadOperation):
        CALC.operation("divide")


def test_interface_duplicate_op_rejected():
    with pytest.raises(OrbError):
        Interface("Dup", (Operation("x"), Operation("x")))


# --------------------------- servant validation ------------------------------

def test_validate_good_servant():
    validate_servant(GoodCalc(), CALC)


def test_validate_missing_operation():
    class Partial:
        def add(self, a, b):
            return a + b

    with pytest.raises(OrbError, match="notify"):
        validate_servant(Partial(), CALC)


def test_validate_arity_mismatch():
    class Wrong:
        def add(self, a, b, c):
            return 0

        def notify(self, event):
            pass

    with pytest.raises(OrbError, match="arity"):
        validate_servant(Wrong(), CALC)


def test_validate_defaults_are_generous():
    class Defaulted:
        def add(self, a, b=0):
            return a + b

        def notify(self, event="tick"):
            pass

    validate_servant(Defaulted(), CALC)


def test_validate_varargs_accepted():
    class Var:
        def add(self, *args):
            return sum(args)

        def notify(self, **kwargs):
            pass

    validate_servant(Var(), CALC)


def test_discover_servants_match_their_idl():
    """The shipped servants must satisfy the declared interface levels."""
    from repro.core.corba import CorbaProxyServant, DiscoverCorbaServerServant

    class FakeServer:
        pass

    validate_servant(DiscoverCorbaServerServant(FakeServer()),
                     DISCOVER_CORBA_SERVER)
    validate_servant(CorbaProxyServant(FakeServer(), "x#a1"), CORBA_PROXY)


# ------------------------------- stubs ----------------------------------

def make_pair():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", 0.001)
    corb = Orb(net.hosts["a"])
    sorb = Orb(net.hosts["b"])
    servant = GoodCalc()
    ref = sorb.activate(servant, key="calc")
    return sim, corb, ref, servant


def test_stub_twoway_call():
    sim, corb, ref, servant = make_pair()
    stub = make_stub(corb, ref, CALC)

    def caller():
        return (yield from stub.add(2, 3))

    assert drive(sim, caller()) == 5


def test_stub_oneway_call():
    sim, corb, ref, servant = make_pair()
    stub = make_stub(corb, ref, CALC)
    stub.notify("boom")  # plain call, no yield
    sim.run()
    assert servant.events == ["boom"]


def test_stub_rejects_undeclared_operation_locally():
    sim, corb, ref, servant = make_pair()
    stub = make_stub(corb, ref, CALC)
    with pytest.raises(BadOperation):
        stub.divide  # attribute access alone raises — nothing on the wire


def test_stub_timeout_kwarg():
    sim, corb, ref, servant = make_pair()
    stub = make_stub(corb, ref, CALC, timeout=5.0)

    def caller():
        return (yield from stub.add(1, 1, timeout=10.0))

    assert drive(sim, caller()) == 2


def test_stub_exposes_ref_and_interface():
    sim, corb, ref, servant = make_pair()
    stub = make_stub(corb, ref, CALC)
    assert stub.ref == ref
    assert all(callable(getattr(stub, op.name)) for op in CALC.operations())
