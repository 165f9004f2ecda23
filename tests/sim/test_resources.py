"""Tests for Store: FIFO order, getter wake-up, refusal when full."""

import pytest

from repro.sim import Simulator, Store


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        got.append((yield store.get()))

    store.try_put("msg")
    sim.spawn(consumer(sim, store))
    sim.run()
    assert got == ["msg"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        item = yield store.get()
        got.append((item, sim.now))

    def producer(sim, store):
        yield sim.timeout(5.0)
        store.try_put("late-item")

    sim.spawn(consumer(sim, store))
    sim.spawn(producer(sim, store))
    sim.run()
    assert got == [("late-item", 5.0)]


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store):
        for _ in range(3):
            got.append((yield store.get()))

    for i in range(3):
        store.try_put(i)
    sim.spawn(consumer(sim, store))
    sim.run()
    assert got == [0, 1, 2]


def test_store_multiple_getters_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(sim, store, tag):
        got.append((tag, (yield store.get())))

    sim.spawn(consumer(sim, store, "first"))
    sim.spawn(consumer(sim, store, "second"))

    def producer(sim, store):
        yield sim.timeout(1.0)
        store.try_put("a")
        yield sim.timeout(1.0)
        store.try_put("b")

    sim.spawn(producer(sim, store))
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.try_put("x")
    sim.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_try_put_respects_capacity():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.try_put("a") is True
    sim.run()
    assert store.try_put("b") is False
    assert len(store) == 1


def test_store_len():
    sim = Simulator()
    store = Store(sim)
    assert len(store) == 0
    store.try_put(1)
    store.try_put(2)
    sim.run()
    assert len(store) == 2


def test_store_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Store(sim, capacity=0)
