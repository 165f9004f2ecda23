"""A port is a function: a handler port runs its receiver's code when the
frame arrives, with no listener process and no event of its own.

The HTTP container, the HTTP client and the ORB bind handler ports; a
channel daemon and an application keep a queued port (an inbox a process
drains with ``recv``).
"""

import pytest

from repro.net import Network
from repro.orb import CommFailure, Orb
from repro.sim import Simulator
from repro.web import ServletContainer
from repro.web.client import HttpClient
from repro.web.http import HttpRequest
from tests.conftest import drive


def pair(latency=0.001):
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency)
    return sim, net


def test_a_frame_to_a_handler_port_costs_its_hop_and_nothing_else():
    sim, net = pair()
    taken = []
    net.hosts["b"].bind(9, lambda frame: taken.append((frame, sim.now)))
    frame = net.hosts["a"].bind(8).send("b", 9, "hello")
    sim.run()
    assert taken == [(frame, 0.001)]
    assert sim.events_dispatched == 1  # the hop's arrival callback


def test_a_handler_ports_endpoint_has_no_inbox():
    sim, net = pair()
    assert net.hosts["b"].bind(9, lambda frame: None).inbox is None
    assert net.hosts["b"].bind(10).inbox is not None  # a queued port


@pytest.mark.parametrize("build", [
    lambda host: ServletContainer(host),
    lambda host: HttpClient(host, "b"),
    lambda host: Orb(host)], ids=["container", "client", "orb"])
def test_building_a_receiver_spawns_no_process(build):
    sim, net = pair()
    build(net.hosts["a"])
    sim.run()
    assert sim.events_dispatched == 0  # a listener's boot would be one


def send_late(sim, net, port, payload):
    """Send ``payload`` from ``b`` to ``a``'s ``port``; run to the end."""
    frame = net.hosts["b"].bind(1234).send("a", port, payload)
    sim.run()
    return frame


def test_a_request_to_a_stopped_container_is_dropped():
    sim, net = pair()
    container = ServletContainer(net.hosts["a"])
    container.stop()
    container.stop()  # idempotent
    frame = send_late(sim, net, container.port, HttpRequest(1, "GET", "/"))
    assert net.trace.dropped.messages == 1 and net.dropped[-1] is frame


def test_a_response_to_a_closed_client_is_dropped():
    sim, net = pair()
    client = HttpClient(net.hosts["a"], "b")
    client.close()
    frame = send_late(sim, net, client.endpoint.port, "late")
    assert net.trace.dropped.messages == 1 and net.dropped[-1] is frame


def test_a_frame_to_a_shut_down_orb_is_dropped():
    sim, net = pair()
    orb = Orb(net.hosts["a"])
    orb.shutdown()
    frame = send_late(sim, net, orb.port, "late")
    assert net.trace.dropped.messages == 1 and net.dropped[-1] is frame


def test_closing_twice_never_releases_a_successors_port():
    sim, net = pair()
    first = Orb(net.hosts["a"])
    first.shutdown()
    successor = Orb(net.hosts["a"])
    first.shutdown()
    assert net.hosts["a"].ports[successor.port] is successor.endpoint.deliver


class Slow:
    def __init__(self, sim):
        self.sim = sim

    def compute(self, x):
        yield self.sim.timeout(1.0)
        return x * 2


def test_a_reply_after_its_invoke_timed_out_is_ignored():
    sim, net = pair()
    client, server = Orb(net.hosts["a"]), Orb(net.hosts["b"])
    ref = server.activate(Slow(sim), key="slow")

    def caller():
        try:
            yield from client.invoke(ref, "compute", 21, timeout=0.5)
        except CommFailure:
            return sim.now

    assert 0.5 < drive(sim, caller()) < 1.0
    assert client._pending == {} and net.trace.lan_messages == 1
    sim.run()  # the reply lands at the client's port, and nothing wakes
    assert net.trace.lan_messages == 2  # request and reply, delivered
    assert net.trace.dropped.messages == 0
    assert client._pending == {}
