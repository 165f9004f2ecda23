"""Tests for ORB invocation, dispatch, errors, and timing."""

import pytest

from repro.net import Network
from repro.orb import (
    BadOperation,
    CommFailure,
    ObjectNotFound,
    Orb,
    OrbError,
    RemoteException,
)
from repro.sim import Simulator
from tests.conftest import drive


class Calculator:
    """A simple servant."""

    def __init__(self):
        self.calls = 0

    def add(self, a, b):
        self.calls += 1
        return a + b

    def fail(self):
        raise ValueError("deliberate")

    def slow_echo(self, value, delay, sim=None):
        # plain method; slowness is modeled by the generator variant below
        return value

    def _private(self):
        return "secret"


class SlowServant:
    """Servant whose operation is a simulation process (generator)."""

    def __init__(self, sim):
        self.sim = sim

    def compute(self, x):
        yield self.sim.timeout(0.5)
        return x * 2


def make_pair(latency=0.001):
    sim = Simulator()
    net = Network(sim)
    net.add_host("client-host")
    net.add_host("server-host")
    net.add_link("client-host", "server-host", latency)
    client_orb = Orb(net.hosts["client-host"])
    server_orb = Orb(net.hosts["server-host"])
    return sim, net, client_orb, server_orb


def test_basic_invocation():
    sim, net, corb, sorb = make_pair()
    ref = sorb.activate(Calculator(), key="calc")

    def caller(corb, ref):
        result = yield from corb.invoke(ref, "add", 2, 3)
        return result

    assert drive(sim, caller(corb, ref)) == 5


def test_invocation_with_kwargs():
    sim, net, corb, sorb = make_pair()
    ref = sorb.activate(Calculator(), key="calc")

    def caller():
        return (yield from corb.invoke(ref, "add", a=10, b=20))

    assert drive(sim, caller()) == 30


def test_invocation_takes_network_and_cpu_time():
    sim, net, corb, sorb = make_pair(latency=0.010)
    ref = sorb.activate(Calculator(), key="calc")

    def caller():
        result = yield from corb.invoke(ref, "add", 1, 1)
        return (result, sim.now)

    result, elapsed = drive(sim, caller())
    assert result == 2
    # at least 2 network hops (20ms) plus server dispatch cost
    assert elapsed > 0.020 + sorb.costs.corba_call_cost


def test_generator_servant_operation():
    sim, net, corb, sorb = make_pair()
    ref = sorb.activate(SlowServant(sim), key="slow")

    def caller():
        result = yield from corb.invoke(ref, "compute", 21)
        return (result, sim.now)

    result, elapsed = drive(sim, caller())
    assert result == 42
    assert elapsed > 0.5


def test_servant_exception_becomes_remote_exception():
    sim, net, corb, sorb = make_pair()
    ref = sorb.activate(Calculator(), key="calc")

    def caller():
        try:
            yield from corb.invoke(ref, "fail")
        except RemoteException as exc:
            return (exc.exc_type, exc.message)

    assert drive(sim, caller()) == ("ValueError", "deliberate")


def test_unknown_object_raises_object_not_found():
    sim, net, corb, sorb = make_pair()
    from repro.orb import ObjectRef
    bogus = ObjectRef("server-host", sorb.port, "ghost")

    def caller():
        try:
            yield from corb.invoke(bogus, "anything")
        except ObjectNotFound:
            return "not-found"

    assert drive(sim, caller()) == "not-found"


def test_unknown_operation_raises_bad_operation():
    sim, net, corb, sorb = make_pair()
    ref = sorb.activate(Calculator(), key="calc")

    def caller():
        try:
            yield from corb.invoke(ref, "divide", 1, 2)
        except BadOperation:
            return "bad-op"

    assert drive(sim, caller()) == "bad-op"


def test_private_operations_hidden():
    sim, net, corb, sorb = make_pair()
    ref = sorb.activate(Calculator(), key="calc")

    def caller():
        try:
            yield from corb.invoke(ref, "_private")
        except BadOperation:
            return "hidden"

    assert drive(sim, caller()) == "hidden"


def test_invoke_timeout_raises_comm_failure():
    sim, net, corb, sorb = make_pair()
    # Deactivate the server ORB so no reply ever comes.
    sorb.shutdown()
    from repro.orb import ObjectRef
    ref = ObjectRef("server-host", 683, "calc")

    def caller():
        try:
            yield from corb.invoke(ref, "add", 1, 2, timeout=1.0)
        except CommFailure:
            return ("timeout", sim.now)

    result, t = drive(sim, caller())
    assert result == "timeout"
    assert t >= 1.0


def test_oneway_invocation_no_reply():
    sim, net, corb, sorb = make_pair()
    calc = Calculator()
    ref = sorb.activate(calc, key="calc")
    corb.invoke_oneway(ref, "add", 5, 5)
    sim.run()
    assert calc.calls == 1


def test_oneway_swallows_errors():
    sim, net, corb, sorb = make_pair()
    ref = sorb.activate(Calculator(), key="calc")
    corb.invoke_oneway(ref, "fail")
    sim.run()  # no exception surfaces


def test_concurrent_invocations_correlate_correctly():
    sim, net, corb, sorb = make_pair()
    ref = sorb.activate(Calculator(), key="calc")
    results = {}

    def caller(tag, a, b):
        results[tag] = yield from corb.invoke(ref, "add", a, b)

    for i in range(5):
        sim.spawn(caller(i, i, 100))
    sim.run()
    assert results == {i: i + 100 for i in range(5)}


def test_adapter_duplicate_key_rejected():
    sim, net, corb, sorb = make_pair()
    sorb.activate(Calculator(), key="calc")
    with pytest.raises(OrbError):
        sorb.activate(Calculator(), key="calc")


def test_deactivate_then_invoke_fails():
    sim, net, corb, sorb = make_pair()
    ref = sorb.activate(Calculator(), key="calc")
    sorb.deactivate("calc")

    def caller():
        try:
            yield from corb.invoke(ref, "add", 1, 2)
        except ObjectNotFound:
            return "gone"

    assert drive(sim, caller()) == "gone"


def test_refs_can_cross_the_wire():
    """A servant can hand out references to other servants."""
    sim, net, corb, sorb = make_pair()

    class Directory:
        def __init__(self, calc_ref):
            self.calc_ref = calc_ref

        def get_calc(self):
            return self.calc_ref

    calc = sorb.activate(Calculator(), key="calc")
    dref = sorb.activate(Directory(calc), key="dir")

    def caller():
        calc_ref = yield from corb.invoke(dref, "get_calc")
        return (yield from corb.invoke(calc_ref, "add", 7, 8))

    assert drive(sim, caller()) == 15


def test_server_cpu_serializes_dispatch():
    """Two simultaneous calls to a 1-CPU server queue behind each other."""
    sim, net, corb, sorb = make_pair(latency=0.0)
    ref = sorb.activate(Calculator(), key="calc")
    finish_times = []

    def caller():
        yield from corb.invoke(ref, "add", 1, 1)
        finish_times.append(sim.now)

    sim.spawn(caller())
    sim.spawn(caller())
    sim.run()
    # Second completion is roughly one dispatch-cost later than the first.
    gap = finish_times[1] - finish_times[0]
    assert gap >= sorb.costs.corba_call_cost * 0.9


def test_orb_shutdown_releases_port():
    sim, net, corb, sorb = make_pair()
    sorb.shutdown()
    sim.run()
    assert 683 not in net.hosts["server-host"].ports
    # idempotent
    sorb.shutdown()


def test_equal_refs_and_trace_contexts_hash_alike():
    """Both define ``__eq__`` by value, so equal values must hash alike and
    find each other as dict keys."""
    from repro.obs.span import TraceContext
    from repro.orb import ObjectRef

    pairs = [(ObjectRef("h", 683, "calc", "Calc"),
              ObjectRef("h", 683, "calc")),
             (TraceContext(7, 3), TraceContext(7, 3))]
    for a, b in pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert {a: "found"}[b] == "found"
    assert ObjectRef("h", 683, "calc") != ObjectRef("h", 684, "calc")
    assert TraceContext(7, 3) != TraceContext(7, 4)
