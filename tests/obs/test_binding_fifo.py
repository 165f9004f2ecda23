"""The ledger's trace bindings against the ``OrderedDict`` they replaced.

The parent kept ``trace id -> rollup key`` in an ``OrderedDict`` and, past
``max_trace_bindings``, popped its first item: eviction by first binding,
an id bound again keeping its place in line.  The ledger now keeps a plain
dict plus a FIFO of first-bound ids.  The reference below is the parent's
composition; the bindings (and their order) and the key every frame is
charged to must come out the same.  A binding outlives its request, so
once the request is booked it holds the entry's key: equal keys share one
tuple.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import RequestCostLedger
from repro.obs.span import TraceContext
from repro.pipeline.core import PLANE_HTTP, RequestContext

KEYS = [(f"p{i}", "-", "orb", f"op{i % 3}") for i in range(6)]


def reference_bind(bindings, trace_id, key, limit):
    """The parent's ``bind_trace``."""
    bindings[trace_id] = key
    if len(bindings) > limit:
        bindings.popitem(last=False)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 8),
       st.lists(st.tuples(st.integers(0, 15), st.sampled_from(KEYS)),
                max_size=120))
def test_eviction_matches_the_ordered_dict(limit, binds):
    ledger = RequestCostLedger(events_fn=lambda: 0, max_trace_bindings=limit)
    reference = OrderedDict()
    for trace_id, key in binds:
        ledger.bind_trace(trace_id, key)
        reference_bind(reference, trace_id, key, limit)
        assert list(ledger._bindings.items()) == list(reference.items())
        assert list(ledger._bound) == list(reference)
    for trace_id in range(16):
        frame = type("Frame", (), {
            "trace_ctx": TraceContext(trace_id, 1), "src_host": "h",
            "channel": "main"})()
        assert ledger._frame_key(frame) == reference.get(
            trace_id, ("h", "-", "net", "main"))


def request(trace_id, principal="alice", operation="get"):
    ctx = RequestContext(PLANE_HTTP, principal=principal,
                         operation=operation)
    ctx.trace_ctx = TraceContext(trace_id, 1)
    return ctx


def test_bindings_of_equal_keys_share_the_entry_key():
    ledger = RequestCostLedger(events_fn=lambda: 0)
    first, second = request(1), request(2)
    ledger.open_request(first)
    ledger.close_request(first)
    ledger.open_request(second)
    # open, the request's scope is a tuple of its own
    scope_key = second.cost_open[0]
    assert ledger._bindings[2] is scope_key
    ledger.close_request(second)
    (entry,) = ledger.entries.values()
    assert ledger._bindings[1] is ledger._bindings[2] is entry.key
    assert entry.key == scope_key and entry.key is not scope_key


def test_a_later_binding_of_the_trace_is_not_overwritten_at_close():
    """An outer and an inner request of one trace: the inner one bound
    the trace last, and keeps it when the outer one closes."""
    ledger = RequestCostLedger(events_fn=lambda: 0)
    outer, inner = request(7, operation="outer"), request(7, operation="in")
    ledger.open_request(outer)
    ledger.open_request(inner)
    ledger.close_request(inner)
    ledger.close_request(outer)
    assert ledger._bindings[7] is ledger.entries[
        ("alice", "-", PLANE_HTTP, "in")].key
