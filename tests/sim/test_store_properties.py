"""Property-based tests: Store behaves like a FIFO queue model.

The Store underlies every message queue in the system (link buffers,
inboxes, per-client FIFO buffers), so we check it against a plain
``collections.deque`` model over arbitrary operation sequences.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Store

ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 100)),
        st.tuples(st.just("get"), st.just(0)),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(ops)
def test_store_matches_fifo_model(sequence):
    sim = Simulator()
    store = Store(sim)
    model = deque()
    got_real = []
    got_model = []

    for op, value in sequence:
        if op == "put":
            assert store.try_put(value)
            model.append(value)
        else:
            item = store.try_get()
            got_real.append(item)
            got_model.append(model.popleft() if model else None)
    sim.run()
    assert got_real == got_model
    assert list(store.items) == list(model)


@settings(max_examples=100, deadline=None)
@given(ops, st.integers(min_value=1, max_value=5))
def test_bounded_store_never_exceeds_capacity(sequence, capacity):
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    for op, value in sequence:
        if op == "put":
            room = len(store) < capacity
            assert store.try_put(value) is room  # refused exactly when full
        else:
            store.try_get()
        assert len(store) <= capacity
    sim.run()
    assert len(store) <= capacity


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_blocking_getters_receive_everything_in_order(values):
    """N waiting getters + N later puts: items delivered FIFO to FIFO."""
    sim = Simulator()
    store = Store(sim)
    received = []

    def getter(tag):
        item = yield store.get()
        received.append((tag, item))

    for i in range(len(values)):
        sim.spawn(getter(i))

    def producer():
        for v in values:
            yield sim.timeout(1.0)
            store.try_put(v)

    sim.spawn(producer())
    sim.run()
    assert received == list(enumerate(values))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10))
def test_cancel_preserves_items_for_later_getters(n_cancelled):
    """Cancelled get() events must never consume items (the timed-wait
    correctness requirement of the interaction phase)."""
    sim = Simulator()
    store = Store(sim)
    events = [store.get() for _ in range(n_cancelled)]
    for ev in events:
        store.cancel(ev)
    store.try_put("survivor")
    sim.run()
    assert store.try_get() == "survivor"
