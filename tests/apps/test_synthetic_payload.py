"""The synthetic application's update payload: its ``series`` is the list
the per-element comprehension builds, float for float, wherever the
counter is; successive series share the float objects of the values they
have in common; and no receiver can change a later series by mutating the
list it was handed."""

import gc
import tracemalloc

import pytest

from repro.apps import SyntheticApp
from repro.net import Network
from repro.sim import Simulator

def steps(n):
    """Counter moves between successive updates of ``n`` floats; the last
    one steps back."""
    return [0, 1, 10, n - 1, n, n + 7, -3]


def reference(counter, n):
    return [float(counter + i) for i in range(n)]


def make_app(payload_floats):
    net = Network(Simulator())
    return SyntheticApp(net.add_host("apphost"), "unit", "srv",
                        payload_floats=payload_floats)


def shared(a, b):
    """How many of ``b``'s elements are objects ``a`` also holds."""
    ids = set(map(id, a))
    return sum(id(value) in ids for value in b)


@pytest.mark.parametrize("counter", [0, 12_345, 2 ** 53 + 1, 2 ** 60])
@pytest.mark.parametrize("payload_floats", [0, 1, 16, 4096])
def test_series_is_the_comprehensions_list(counter, payload_floats):
    app = make_app(payload_floats)
    app.counter = counter
    series = app.update_payload()["series"]
    assert series == reference(counter, payload_floats)
    assert all(type(value) is float for value in series)


@pytest.mark.parametrize("start", [0, 2 ** 53 - 5, 2 ** 60])
@pytest.mark.parametrize("payload_floats", [0, 1, 16, 4096])
def test_successive_series_share_all_but_the_step(start, payload_floats):
    n = payload_floats
    app = make_app(n)
    app.counter = start
    previous = app.update_payload()["series"]
    for step in steps(n):
        app.counter += step
        series = app.update_payload()["series"]
        assert series == reference(app.counter, n), step
        assert all(type(value) is float for value in series)
        assert series is not previous
        expected = n - step if 0 <= step < n else 0
        assert shared(previous, series) == expected, step
        previous = series


@pytest.mark.parametrize("mutate", [
    lambda s: s.append(-1.0),
    lambda s: s.__setitem__(slice(None), [-1.0] * len(s)),
    lambda s: s.__setitem__(0, -1.0) if s else None,
    list.clear,
], ids=["append", "assign-all", "assign-one", "clear"])
@pytest.mark.parametrize("payload_floats", [0, 1, 16, 4096])
def test_a_receiver_mutating_its_list_cannot_change_the_next(
        mutate, payload_floats):
    n = payload_floats
    app = make_app(n)
    for step in steps(n):
        mutate(app.update_payload()["series"])
        app.counter += step
        assert app.update_payload()["series"] == reference(app.counter, n)


def test_a_retained_4096_float_update_costs_its_list_and_the_step():
    """Thirty portals keep every update they pull; sixty retained series a
    step of ten apart cost a list of pointers and ten floats each, not
    4 096 floats (131 363 B each when every series was built fresh)."""
    app = make_app(4096)
    app.update_payload()
    kept = []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(60):
            app.counter += 10
            kept.append(app.update_payload())
        gc.collect()
        per_update = (tracemalloc.get_traced_memory()[0] - before) / 60
    finally:
        tracemalloc.stop()
    assert per_update <= 40_000, per_update
