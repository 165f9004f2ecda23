"""A broadcast to N subscribers walks/sizes the payload exactly once.

This pins the tentpole perf property: ``push_to_client`` freezes the
update's wire size before fan-out, so the N poll responses it later
rides in hit the memo instead of re-walking the payload.  A counting
hook on the object-sizing walk proves it, and byte accounting stays
bit-for-bit identical to a fresh encode.
"""

from __future__ import annotations

import copy
from collections import Counter

import numpy as np
import pytest

from repro.core.collaboration import CollaborationManager
from repro.sim import Simulator
from repro.web.http import HttpResponse
from repro.wire import (
    UpdateMessage,
    encode,
    encoded_size,
    set_object_walk_hook,
)


@pytest.fixture
def walk_counts():
    counts: Counter = Counter()
    previous = set_object_walk_hook(
        lambda obj: counts.update([id(obj)]) if isinstance(obj, UpdateMessage)
        else None)
    yield counts
    set_object_walk_hook(previous)


def test_broadcast_sizes_payload_exactly_once(walk_counts):
    n_subscribers = 8
    sim = Simulator()
    mgr = CollaborationManager(sim, "srv")
    sessions = []
    for _ in range(n_subscribers):
        s = mgr.create_session("bench")
        mgr.subscribe(s.client_id, "app-1")
        sessions.append(s)

    grid = np.arange(16 * 16, dtype=np.float64).reshape(16, 16)
    msg = UpdateMessage(payload={"grid": grid, "seq": 7}, seq=7,
                        timestamp=1.0, app_id="app-1", msg_id=1)
    assert mgr.broadcast_update("app-1", msg) == n_subscribers
    assert walk_counts[id(msg)] == 1  # frozen on first push only

    # Every subscriber polls; the update rides in N distinct responses
    # but is never re-walked.
    sizes = []
    for i, s in enumerate(sessions):
        polled = s.buffer.try_get()
        assert polled is msg  # by-reference delivery, no copies
        sizes.append(encoded_size(HttpResponse(i, body=[polled])))
    assert walk_counts[id(msg)] == 1
    assert len(set(sizes)) == 1  # identical accounting per subscriber

    # Byte accounting is unchanged: the memoized size equals the length
    # of a fresh encode of an identical (unfrozen) message.
    clone = copy.deepcopy(msg)
    assert encoded_size(msg) == len(encode(clone))
    resp = HttpResponse(0, body=[msg])
    assert encoded_size(resp) == len(encode(copy.deepcopy(resp)))


def test_distinct_updates_each_walked_once(walk_counts):
    sim = Simulator()
    mgr = CollaborationManager(sim, "srv")
    sessions = [mgr.create_session("bench") for _ in range(5)]
    for s in sessions:
        mgr.subscribe(s.client_id, "app-1")

    msgs = [UpdateMessage(payload={"seq": i}, seq=i, msg_id=i + 1)
            for i in range(10)]
    for m in msgs:
        mgr.broadcast_update("app-1", m)
    for s in sessions:
        while (item := s.buffer.try_get()) is not None:
            encoded_size(HttpResponse(0, body=[item]))
    assert all(walk_counts[id(m)] == 1 for m in msgs)
