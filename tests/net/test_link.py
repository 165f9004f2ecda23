"""Unit tests for Link validation, arithmetic and arrival times."""

import math

import pytest

from repro.net import Link
from repro.sim import Simulator


def test_link_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, "a", "b", latency=-0.001)
    with pytest.raises(ValueError):
        Link(sim, "a", "b", latency=0.001, bandwidth=0)
    with pytest.raises(ValueError):
        Link(sim, "a", "a", latency=0.001)


def test_link_other_endpoint():
    sim = Simulator()
    link = Link(sim, "a", "b", 0.001)
    assert link.other("a") == "b"
    assert link.other("b") == "a"
    with pytest.raises(ValueError):
        link.other("c")


def test_transfer_time():
    sim = Simulator()
    arrivals = []
    link = Link(sim, "a", "b", 0.0, bandwidth=1000.0)
    link.send("a", 500, arrivals.append, "slow")
    infinite = Link(sim, "a", "b", 0.0)
    infinite.send("a", 10 ** 9, arrivals.append, "instant")
    assert arrivals == ["instant"]  # no transfer time: delivered in send
    sim.run()
    assert arrivals == ["instant", "slow"] and sim.now == pytest.approx(0.5)


def test_transmit_unknown_endpoint_rejected():
    sim = Simulator()
    link = Link(sim, "a", "b", 0.001)
    with pytest.raises(KeyError):
        link.send("c", 100, lambda _arg: None, None)
    assert sim.peek() == math.inf  # nothing was scheduled


# -- arrival-time parity ------------------------------------------------------
# Every expected list below is the ``repr`` of the arrival times the parent
# of PR 18 produced (two pooled callbacks per hop: transmission complete at
# ``now + size/bandwidth``, then ``+ latency`` from there), in arrival
# order, as ``(index of the send, time)``.  One callback per hop must land
# on the same floats: 0.13208800000000004 is not 0.132088.

_T1 = 0.1 + 1500 / 1.25e6  # when the first frame below leaves the transmitter

PARITY = {
    # (latency, bandwidth, [(send time, sending end, bytes)], parent's arrivals)
    "mixed_burst_both_directions": (0.0005, 1.25e6, [
        (0.1, "a", 1500), (0.1, "b", 700), (0.1, "a", 64), (0.1, "a", 9000),
        (0.1, "b", 700), (0.1, "a", 1), (0.1, "b", 33), (0.1, "a", 4096)],
        [(1, '0.10106000000000001'), (4, '0.10162000000000002'),
         (6, '0.10164640000000001'), (0, '0.10170000000000001'),
         (2, '0.10175120000000001'), (3, '0.10895120000000001'),
         (5, '0.10895200000000001'), (7, '0.1122288')]),
    # a send landing exactly at its predecessor's completion, one an ulp
    # after the next completion, and the same pair on a round number
    "at_and_just_after_completion": (0.03, 1.25e6, [
        (0.1, "a", 1500), (_T1, "a", 777),
        (math.nextafter(_T1 + 777 / 1.25e6, math.inf), "a", 333),
        (0.7, "a", 100), (0.7 + 100 / 1.25e6, "a", 100)],
        [(0, '0.1312'), (1, '0.1318216'), (2, '0.13208800000000004'),
         (3, '0.73008'), (4, '0.7301599999999999')]),
    # zero-byte frames wait their turn behind a busy transmitter and do
    # not overtake; on an idle one they cost the latency alone
    "zero_size_behind_busy": (0.002, 1.25e6, [
        (0.3, "a", 1500), (0.3, "a", 0), (0.3, "a", 0), (0.3, "a", 200),
        (0.3, "a", 0), (0.9, "a", 0)],
        [(0, '0.30319999999999997'), (1, '0.30319999999999997'),
         (2, '0.30319999999999997'), (3, '0.30335999999999996'),
         (4, '0.30335999999999996'), (5, '0.902')]),
    "infinite_bandwidth": (0.002, math.inf, [
        (0.3, "a", 1500), (0.3, "a", 10 ** 9), (0.3, "b", 7), (0.41, "a", 1)],
        [(0, '0.302'), (1, '0.302'), (2, '0.302'), (3, '0.412')]),
    "zero_latency": (0.0, 1.25e6, [
        (0.3, "a", 1500), (0.3, "a", 64), (0.3, "b", 9000), (0.3, "a", 4096),
        (0.31, "b", 1)],
        [(0, '0.30119999999999997'), (1, '0.30125119999999994'),
         (3, '0.30452799999999997'), (2, '0.3072'), (4, '0.3100008')]),
    "zero_latency_infinite_bandwidth": (0.0, math.inf, [
        (0.3, "a", 1500), (0.3, "a", 64), (0.7, "b", 1)],
        [(0, '0.3'), (1, '0.3'), (2, '0.7')]),
}


@pytest.mark.parametrize("name", sorted(PARITY))
def test_arrival_times_are_the_parents_floats(name):
    latency, bandwidth, sends, expected = PARITY[name]
    sim = Simulator()
    link = Link(sim, "a", "b", latency, bandwidth)
    arrived = []
    for i, (at, src, size) in enumerate(sends):
        # from time zero ``call_later`` lands on ``at`` exactly
        sim.call_later(at, lambda i=i, src=src, size=size: link.send(
            src, size, lambda i: arrived.append((i, repr(sim.now))), i))
    sim.run()
    assert arrived == expected


def test_idle_zero_cost_hop_is_synchronous():
    sim = Simulator()
    link = Link(sim, "a", "b", 0.0)
    arrived = []
    link.send("a", 10 ** 6, arrived.append, "first")
    link.send("a", 1, arrived.append, "second")
    assert arrived == ["first", "second"]
    assert sim.peek() == math.inf
