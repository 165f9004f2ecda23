"""Tests for hosts, links, routing, and frame delivery."""

import pytest

from repro.net import Network, NetworkError
from repro.sim import Simulator
from repro.wire import encoded_size

from tests.conftest import path_latency, route


def two_host_net(latency=0.010, bandwidth=float("inf")):
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency, bandwidth)
    return sim, net


def test_duplicate_host_rejected():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    with pytest.raises(NetworkError):
        net.add_host("a")


def test_link_requires_known_hosts():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    with pytest.raises(NetworkError):
        net.add_link("a", "ghost", 0.001)


def test_duplicate_link_rejected():
    sim, net = two_host_net()
    with pytest.raises(NetworkError):
        net.add_link("b", "a", 0.001)


def test_delivery_latency():
    sim, net = two_host_net(latency=0.010)
    src = net.hosts["a"].bind(1000)
    dst = net.hosts["b"].bind(2000)
    got = []

    def receiver(sim, dst):
        frame = yield dst.recv()
        got.append((frame.payload, sim.now))

    sim.spawn(receiver(sim, dst))
    src.send("b", 2000, "ping")
    sim.run()
    assert got == [("ping", 0.010)]


def test_frame_records_latency_and_size():
    sim, net = two_host_net(latency=0.005)
    src = net.hosts["a"].bind(1)
    dst = net.hosts["b"].bind(2)

    def receiver(sim, dst):
        yield dst.recv()

    sim.spawn(receiver(sim, dst))
    frame = src.send("b", 2, {"k": "v"})
    sim.run()
    assert frame.delivered_at - frame.sent_at == pytest.approx(0.005)
    assert frame.size == encoded_size({"k": "v"}) + net.frame_overhead


def test_bandwidth_adds_transfer_time():
    sim, net = two_host_net(latency=0.0, bandwidth=1000.0)  # 1 kB/s
    src = net.hosts["a"].bind(1)
    dst = net.hosts["b"].bind(2)
    payload = b"x" * 936  # frame = 936 + 5 + 64 overhead ≈ 1005 bytes
    times = []

    def receiver(sim, dst):
        frame = yield dst.recv()
        times.append(sim.now)

    sim.spawn(receiver(sim, dst))
    frame = src.send("b", 2, payload)
    sim.run()
    assert times[0] == pytest.approx(frame.size / 1000.0)


def test_transmissions_serialize_on_link():
    sim, net = two_host_net(latency=0.0, bandwidth=1000.0)
    src = net.hosts["a"].bind(1)
    dst = net.hosts["b"].bind(2)
    arrivals = []

    def receiver(sim, dst):
        for _ in range(2):
            frame = yield dst.recv()
            arrivals.append(sim.now)

    sim.spawn(receiver(sim, dst))
    f1 = src.send("b", 2, b"y" * 931)  # ~1000B -> 1s transfer
    f2 = src.send("b", 2, b"y" * 931)
    sim.run()
    # The second frame waits for the first to finish transmitting.
    assert arrivals[1] == pytest.approx(arrivals[0] * 2)


def test_opposite_directions_do_not_serialize():
    sim, net = two_host_net(latency=0.0, bandwidth=1000.0)
    a = net.hosts["a"].bind(1)
    b = net.hosts["b"].bind(1)
    arrivals = {}

    def receiver(sim, ep, tag):
        frame = yield ep.recv()
        arrivals[tag] = sim.now

    sim.spawn(receiver(sim, a, "at_a"))
    sim.spawn(receiver(sim, b, "at_b"))
    a.send("b", 1, b"z" * 931)
    b.send("a", 1, b"z" * 931)
    sim.run()
    # Full duplex: both ~1s, not 2s.
    assert arrivals["at_a"] == pytest.approx(arrivals["at_b"])
    assert arrivals["at_a"] < 1.5


def test_multi_hop_routing_accumulates_latency():
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "m", "b"):
        net.add_host(name)
    net.add_link("a", "m", 0.010)
    net.add_link("m", "b", 0.020)
    src = net.hosts["a"].bind(1)
    dst = net.hosts["b"].bind(2)
    got = []

    def receiver(sim, dst):
        yield dst.recv()
        got.append(sim.now)

    sim.spawn(receiver(sim, dst))
    src.send("b", 2, "hop")
    sim.run()
    assert got == [pytest.approx(0.030)]
    assert route(net, "a", "b") == ["a", "m", "b"]
    assert path_latency(net, "a", "b") == pytest.approx(0.030)


def test_routing_prefers_low_latency_path():
    sim = Simulator()
    net = Network(sim)
    for name in ("a", "fast", "slow", "b"):
        net.add_host(name)
    net.add_link("a", "slow", 0.100)
    net.add_link("slow", "b", 0.100)
    net.add_link("a", "fast", 0.001)
    net.add_link("fast", "b", 0.001)
    assert route(net, "a", "b") == ["a", "fast", "b"]


def test_no_route_raises():
    sim = Simulator()
    net = Network(sim)
    net.add_host("a")
    net.add_host("island")
    src = net.hosts["a"].bind(1)
    with pytest.raises(NetworkError):
        src.send("island", 1, "unreachable")


def test_unknown_destination_raises():
    sim, net = two_host_net()
    src = net.hosts["a"].bind(1)
    with pytest.raises(NetworkError):
        src.send("ghost", 1, "x")


def test_loopback_same_host():
    sim, net = two_host_net()
    a1 = net.hosts["a"].bind(1)
    a2 = net.hosts["a"].bind(2)
    got = []

    def receiver(sim, ep):
        frame = yield ep.recv()
        got.append((frame.payload, sim.now))

    sim.spawn(receiver(sim, a2))
    a1.send("a", 2, "local")
    sim.run()
    assert got == [("local", 0.0)]


def test_unbound_port_drops_frame():
    sim, net = two_host_net()
    src = net.hosts["a"].bind(1)
    src.send("b", 9999, "void")
    sim.run()
    assert len(net.dropped) == 1
    assert net.dropped[0].payload == "void"


def test_port_rebind_rejected_until_close():
    sim, net = two_host_net()
    ep = net.hosts["a"].bind(5)
    with pytest.raises(ValueError):
        net.hosts["a"].bind(5)
    ep.close()
    net.hosts["a"].bind(5)  # fine after close


def test_endpoint_try_recv_and_pending():
    sim, net = two_host_net(latency=0.001)
    src = net.hosts["a"].bind(1)
    dst = net.hosts["b"].bind(2)
    assert dst.inbox.try_get() is None
    src.send("b", 2, "one")
    src.send("b", 2, "two")
    sim.run()
    assert len(dst.inbox) == 2
    assert dst.inbox.try_get().payload == "one"
    assert dst.inbox.try_get().payload == "two"


def test_host_cpu_queueing():
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("srv", cpu_capacity=1)
    done = []

    def job(sim, host, tag):
        yield from host.use_cpu(1.0)
        done.append((tag, sim.now))

    sim.spawn(job(sim, host, "j1"))
    sim.spawn(job(sim, host, "j2"))
    sim.run()
    assert done == [("j1", 1.0), ("j2", 2.0)]


def test_host_cpu_parallel_capacity():
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("srv", cpu_capacity=2)
    done = []

    def job(sim, host, tag):
        yield from host.use_cpu(1.0)
        done.append(sim.now)

    for tag in range(2):
        sim.spawn(job(sim, host, tag))
    sim.run()
    assert done == [1.0, 1.0]
