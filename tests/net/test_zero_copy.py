"""The loopback zero-copy contract (PR 6 tentpole, wire layer).

Payloads cross the simulated wire by reference: ``encode()`` is never
called on the send path, byte accounting comes from the allocation-free
size visitor, and ndarray payloads arrive as the very same object that was
sent.  ``strict_wire=True`` opts back into round-tripping every payload
through the reference codec at hand-off, for codec-parity tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net import Network
from repro.sim import Simulator
from repro.wire import UpdateMessage, set_encode_hook


@pytest.fixture
def encode_calls():
    calls = []
    previous = set_encode_hook(calls.append)
    yield calls
    set_encode_hook(previous)


def _loopback_net():
    sim = Simulator()
    net = Network(sim)
    net.add_host("h")
    inbox = net.hosts["h"].bind(9)
    return sim, net, inbox


def test_loopback_send_never_encodes(encode_calls):
    sim, net, inbox = _loopback_net()
    grid = np.arange(16, dtype=np.float64)
    msg = UpdateMessage(payload={"grid": grid, "label": "step"}, seq=1,
                        timestamp=0.0, msg_id=1)
    net.send("h", 1, "h", 9, msg)
    sim.run()
    frame = inbox.inbox.try_get()
    assert frame is not None
    assert encode_calls == []          # zero-copy: no bytes materialized
    assert frame.payload is msg        # the payload travels by reference
    assert frame.payload.payload["grid"] is grid  # ndarray zero-copy
    assert frame.size > 0              # ...but byte accounting still real


def test_loopback_fanout_sized_not_encoded(encode_calls):
    sim, net, inbox = _loopback_net()
    msg = UpdateMessage(payload={"x": 1.0}, seq=1, timestamp=0.0, msg_id=1)
    frames = [net.send("h", 1, "h", 9, msg) for _ in range(10)]
    sim.run()
    assert encode_calls == []
    # freeze_size memoized: one size, shared by the whole fan-out
    assert len({f.size for f in frames}) == 1


def test_strict_wire_round_trips_bytes(encode_calls):
    sim = Simulator()
    net = Network(sim, strict_wire=True)
    net.add_host("h")
    inbox = net.hosts["h"].bind(9)
    grid = np.arange(16, dtype=np.float64)
    msg = UpdateMessage(payload={"grid": grid, "label": "step"}, seq=7,
                        timestamp=0.0, msg_id=1)
    net.send("h", 1, "h", 9, msg)
    sim.run()
    frame = inbox.inbox.try_get()
    assert len(encode_calls) == 1      # the reference codec really ran
    assert frame.payload is not msg    # a decoded copy, not the original
    assert isinstance(frame.payload, UpdateMessage)
    assert frame.payload.seq == 7
    np.testing.assert_array_equal(frame.payload.payload["grid"], grid)
    assert frame.payload.payload["grid"] is not grid


def test_strict_wire_size_matches_reference_codec(encode_calls):
    """Frame.size (visitor) == len(encode(payload)) + overhead, both modes."""
    from repro.wire import encode

    sim = Simulator()
    net = Network(sim, strict_wire=True)
    net.add_host("h")
    net.hosts["h"].bind(9)
    msg = UpdateMessage(payload={"a": [1, 2.5, "three"]}, seq=1,
                        timestamp=1.0, msg_id=1)
    frame = net.send("h", 1, "h", 9, msg)
    sim.run()
    set_encode_hook(None)
    assert frame.size == len(encode(msg)) + net.frame_overhead
