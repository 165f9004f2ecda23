"""Lifetime and honesty of the size memo, and the float-run shortcut.

``freeze_size`` keeps a frozen message's size in an ``id``-keyed table of
weak references (PR 19; a ``weakref.finalize`` per message before).  Three
things must hold whatever holds the number: a dead message's ``id`` can be
reused without its size coming back, a copy is not frozen, and nobody
mutates a message after it was frozen — the last checked here over a whole
E2-shaped run by re-walking every memo hit.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orb.giop import GiopReply, GiopRequest
from repro.web.http import HttpResponse
from repro.wire import (
    ControlMessage,
    UpdateMessage,
    decode,
    encode,
    encoded_size,
    freeze_size,
    serialize,
)
from tests.conftest import polling_miniature


def test_a_recycled_id_never_brings_a_dead_size_back():
    seen, reused = set(), 0
    for i in range(4000):
        # sizes differ from one message to the next, so a stale entry
        # under a reused id could not go unnoticed
        msg = ControlMessage("evt", detail="x" * (i % 97), sender="s")
        if i % 3 == 0:
            msg = GiopReply(i, result="y" * (i % 89))
        if id(msg) in seen:
            reused += 1
        seen.add(id(msg))
        assert freeze_size(msg) == len(encode(msg))
        assert freeze_size(msg) == encoded_size(msg) == len(encode(msg))
    assert reused > 0  # the loop did hand ids out again
    assert id(msg) in serialize._FROZEN_SIZES
    del msg
    assert not seen & set(serialize._FROZEN_SIZES)


def test_a_copy_is_not_frozen():
    msg = UpdateMessage(payload={"grid": [1.0, 2.0]}, seq=1, timestamp=0.5)
    frozen = freeze_size(msg)
    for clone in (copy.deepcopy(msg), copy.copy(msg), decode(encode(msg))):
        assert id(clone) not in serialize._FROZEN_SIZES
        assert clone == msg and encoded_size(clone) == frozen
        clone.seq = 2 ** 70  # a copy may still change: it was never sent
        assert encoded_size(clone) == len(encode(clone)) != frozen
    assert freeze_size(msg) == frozen == len(encode(msg))


def test_the_non_wire_slot_is_neither_sized_nor_copied():
    req = GiopRequest(1, "key", "op", ("a",), {}, service_context=object())
    bare = GiopRequest(1, "key", "op", ("a",), {})
    assert freeze_size(req) == freeze_size(bare) == len(encode(bare))
    assert not hasattr(decode(encode(bare)), "service_context")


class _NoWeakref:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


serialize.register_codec(_NoWeakref, name="test-no-weakref",
                         fields=("value",))


def test_a_class_that_cannot_be_weakly_referenced_is_sized_every_time():
    walks = []
    previous = serialize.set_object_walk_hook(walks.append)
    try:
        obj = _NoWeakref("abc")
        assert freeze_size(obj) == freeze_size(obj) == len(encode(obj))
    finally:
        serialize.set_object_walk_hook(previous)
    assert walks == [obj, obj]
    assert id(obj) not in serialize._FROZEN_SIZES
    assert decode(encode(obj)).value == "abc"


# -- frozen means frozen -----------------------------------------------------------

@pytest.mark.usefixtures("session_ids_kept")
def test_no_memo_hit_of_a_polling_run_is_stale(monkeypatch):
    """One server, one application, three portals: every time a frozen
    size is read, walk the object again and compare."""
    hits = []

    class RewalkingEntry(serialize._FrozenSize):
        __slots__ = ("_size",)

        @property
        def size(self):
            obj = self()
            walked = serialize._walk_object(
                obj, serialize._obj_size_info[type(obj)])
            assert walked == self._size == len(encode(obj)), obj
            hits.append(type(obj).__name__)
            return self._size

        @size.setter
        def size(self, value):
            self._size = value

    monkeypatch.setattr(serialize, "_FrozenSize", RewalkingEntry)
    _collab, recorder = polling_miniature()
    assert recorder.stats("poll_rtt").count == 57
    # the memo's customers: updates frozen at fan-out, sized again inside
    # each portal's poll response; and GIOP requests frozen by the stub
    assert hits.count("UpdateMessage") > 20
    assert "GiopRequest" in hits


# -- the float run -----------------------------------------------------------------

RUN = serialize._FLOAT_RUN


class _Celsius(float):
    pass


INTRUDERS = [7, 2 ** 70, True, None, "text", b"raw", np.float64(1.5),
             np.int32(3), _Celsius(21.5), [1.0, 2.0], (3.0,), {"k": 1.0},
             float("inf")]


@pytest.mark.parametrize("length", [0, 1, RUN - 1, RUN, RUN + 1, 4096])
@pytest.mark.parametrize("kind", [list, tuple])
def test_a_run_of_floats_is_sized_like_the_encoder(length, kind):
    run = kind(i * 0.37 for i in range(length))
    assert encoded_size(run) == len(encode(run))
    assert encoded_size({"series": run}) == len(encode({"series": run}))
    msg = UpdateMessage(payload={"series": run}, seq=1, timestamp=0.0)
    assert freeze_size(msg) == len(encode(msg))
    assert encoded_size(HttpResponse(1, body=[msg])) == \
        len(encode(HttpResponse(1, body=[msg])))


@settings(max_examples=120, deadline=None)
@given(st.integers(RUN - 2, 3 * RUN), st.data())
def test_one_intruder_anywhere_sends_the_run_back_to_the_walk(length, data):
    run = [i * 0.5 for i in range(length)]
    for _ in range(data.draw(st.integers(1, 3))):
        run[data.draw(st.integers(0, length - 1))] = data.draw(
            st.sampled_from(INTRUDERS))
    assert encoded_size(run) == len(encode(run))
    assert encoded_size(tuple(run)) == len(encode(tuple(run)))
