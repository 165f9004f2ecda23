"""Property tests for the network: conservation, routing, accounting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Network, build_multi_domain
from repro.sim import Simulator
from repro.wire import freeze_size

from tests.conftest import path_latency


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(0, 5)),
                min_size=1, max_size=30))
def test_every_frame_delivered_exactly_once(sends):
    """Random sends between bound endpoints: all frames arrive, none are
    duplicated or lost, and latency is never negative."""
    sim = Simulator()
    net = Network(sim)
    rng_ports = {}
    for i in range(4):
        net.add_host(f"h{i}")
    for i in range(4):
        for j in range(i + 1, 4):
            net.add_link(f"h{i}", f"h{j}", latency=0.001 * (i + j + 1))
    endpoints = {}
    received = []
    for i in range(4):
        for p in range(6):
            ep = net.hosts[f"h{i}"].bind(1000 + p)
            endpoints[(i, p)] = ep

    def drain(ep):
        while True:
            frame = yield ep.recv()
            received.append(frame)

    for ep in endpoints.values():
        sim.spawn(drain(ep))

    sent = 0
    for src, dst, port in sends:
        if src == dst:
            continue
        endpoints[(src, 0)].send(f"h{dst}", 1000 + port, f"m{sent}")
        sent += 1
    sim.run(until=10.0)
    assert len(received) == sent
    assert len({f.frame_id for f in received}) == sent
    assert all(f.delivered_at is not None and f.delivered_at >= f.sent_at
               for f in received)
    assert not net.dropped
    assert net.trace.dropped.messages == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5))
def test_route_symmetry_and_triangle_inequality(n_domains):
    sim = Simulator()
    net, domains = build_multi_domain(sim, n_domains, 1, 1)
    names = [d.server.name for d in domains]
    for a in names:
        for b in names:
            if a == b:
                continue
            # symmetric latencies on an undirected graph
            assert path_latency(net, a, b) == pytest.approx(
                path_latency(net, b, a))
    # triangle inequality over the shortest-path metric
    for a in names:
        for b in names:
            for c in names:
                if len({a, b, c}) == 3:
                    assert (path_latency(net, a, c)
                            <= path_latency(net, a, b)
                            + path_latency(net, b, c) + 1e-12)


def test_trace_bytes_include_frame_overhead():
    sim = Simulator()
    net = Network(sim, frame_overhead=100)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", 0.001)
    src = net.hosts["a"].bind(1)
    net.hosts["b"].bind(2)
    frame = src.send("b", 2, b"x" * 50)
    sim.run()
    from repro.wire import encoded_size
    assert frame.size == encoded_size(b"x" * 50) + 100
    assert net.trace.total.bytes == frame.size


# -- one callback per hop lands where two did (PR 18) ---------------------------

class _HopLog:
    """A cost ledger that keeps the order the traffic trace charged it
    in."""

    def __init__(self, sim):
        self.sim = sim
        self.charged = []

    def account_frame_hop(self, frame, wan):
        self.charged.append((frame.payload, "wan" if wan else "lan",
                             self.sim.now))


def _transfer_time(size, bandwidth):
    return 0.0 if bandwidth == math.inf else size / bandwidth


def _reference_arrivals(latency, bandwidth, sends):
    """The link the parent of PR 18 had — a transmitter slot and a FIFO per
    direction, transmission-complete and arrival each its own scheduled
    step — as a recurrence over time-ordered ``(at, src, size)`` sends,
    with that design's arithmetic: ``done = start + size/bandwidth``, then
    ``arrival = done + latency``, each skipped when it adds no time."""
    last_done = {}
    out = []
    for at, src, size in sends:
        start = max(at, last_done.get(src, at))
        transfer = _transfer_time(size, bandwidth)
        done = start + transfer if transfer > 0.0 else start
        last_done[src] = done
        out.append(done + latency if latency > 0.0 else done)
    return out


#: when a frame is sent, relative to the previous frame of its direction
_WHEN = st.sampled_from(["same_instant", "at_completion", "ulp_after",
                         "third_of_a_transfer_on", "idle_gap"])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.0, 0.0005, 0.03]),
       st.sampled_from([1e3, 1.25e6, float("inf")]),
       st.lists(st.tuples(_WHEN, st.sampled_from(["a", "b"]),
                          st.sampled_from([0, 1, 57, 1436, 9000])),
                min_size=1, max_size=25))
def test_hop_arrivals_equal_the_two_step_reference(latency, bandwidth, plan):
    """Random (send time, size, direction) sequences: every frame reaches
    the far inbox at exactly the float the two-step design produced, and
    the trace books each hop once, charging the ledger in the same call,
    in arrival order."""
    sim = Simulator()
    log = _HopLog(sim)
    net = Network(sim, frame_overhead=64)
    net.trace.ledger = log
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency=latency, bandwidth=bandwidth)
    ends = {"a": net.hosts["a"].bind(1), "b": net.hosts["b"].bind(1)}
    delivered = []

    def drain(endpoint):
        while True:
            frame = yield endpoint.recv()
            delivered.append((frame.payload, frame.delivered_at, sim.now))

    for endpoint in ends.values():
        sim.spawn(drain(endpoint))

    # place each send against the reference's own completion times, so the
    # boundary cases (exactly at, and one ulp after, a completion) occur
    sends, now, done_of = [], 1.0, {"a": 1.0, "b": 1.0}
    for index, (when, src, n_bytes) in enumerate(plan):
        payload = (index, bytes(n_bytes))
        size = freeze_size(payload) + net.frame_overhead
        transfer = _transfer_time(size, bandwidth)
        at = {"same_instant": now,
              "at_completion": done_of[src],
              "ulp_after": math.nextafter(done_of[src], math.inf),
              "third_of_a_transfer_on": now + transfer / 3,
              "idle_gap": max(done_of.values()) + 0.37}[when]
        now = max(now, at)
        sends.append((now, src, size))
        done_of[src] = max(now, done_of[src]) + transfer
        other = "b" if src == "a" else "a"
        sim.call_later(now, lambda src=src, other=other, payload=payload:
                       ends[src].send(other, 1, payload))
    sim.run(until=now + 60.0 + 25 * 9100 / 1e3)

    expected = _reference_arrivals(latency, bandwidth, sends)
    assert len(delivered) == len(plan)
    for (index, _body), stamped, received_at in delivered:
        assert stamped == received_at == expected[index]
    # per direction first in, first out; overall in order of time
    for src in ("a", "b"):
        arrived = [i for (i, _b), _s, _r in delivered if sends[i][1] == src]
        assert arrived == sorted(arrived)
    assert [at for _p, _s, at in delivered] == sorted(expected)
    # one booking per hop — the trace's, charging the ledger in the same
    # call — at the arrival, in arrival order
    assert net.trace.total.messages == len(plan)
    assert sorted(log.charged) == [((i, bytes(n)), "lan", expected[i])
                                   for i, (_w, _s, n) in enumerate(plan)]
    hop_times = [at for _payload, _kind, at in log.charged]
    assert hop_times == sorted(hop_times)


def test_lan_wan_lan_route_arrives_at_the_parents_floats():
    """A three-hop route, a burst each way and a straggler: ``repr`` of
    every delivery time as the parent of PR 18 produced it."""
    sim = Simulator()
    net = Network(sim, frame_overhead=64)
    for name in ("c1", "s1", "s2", "c2"):
        net.add_host(name)
    net.add_link("c1", "s1", latency=0.0005, bandwidth=1.25e7)
    net.add_link("s1", "s2", latency=0.03, bandwidth=1.25e6, kind="wan")
    net.add_link("s2", "c2", latency=0.0007, bandwidth=1.25e7)
    left, right = net.hosts["c1"].bind(1), net.hosts["c2"].bind(1)
    got = []

    def drain(endpoint, at):
        while True:
            frame = yield endpoint.recv()
            got.append((at, frame.payload[-6:], repr(frame.delivered_at)))
            assert frame.delivered_at == sim.now

    sim.spawn(drain(left, "c1"))
    sim.spawn(drain(right, "c2"))

    def burst():
        for i, n in enumerate((10, 4000, 1, 900)):
            left.send("c2", 1, "x" * n + f"#{i}")
        for i, n in enumerate((2000, 5)):
            right.send("c1", 1, "y" * n + f"#{i}")

    sim.call_later(0.2, burst)
    sim.call_later(0.2 + 0.001, lambda: left.send("c2", 1, "late"))
    sim.run(until=5.0)
    assert got == [
        ("c2", "xxxx#0", "0.23127776000000003"),
        ("c1", "yyyy#0", "0.23318816"),
        ("c1", "yyyy#1", "0.23319424"),
        ("c2", "xxxx#1", "0.23511464"),
        ("c2", "x#2", "0.2351204"),
        ("c2", "xxxx#3", "0.23570104"),
        ("c2", "late", "0.23570688")]
    trace = net.trace
    assert (trace.total.messages, trace.total.bytes,
            trace.wan_messages, trace.wan_bytes) == (21, 22245, 7, 7415)
