"""The synthetic application's update payload is built in one numpy pass;
its ``series`` is the list the per-element comprehension built, float for
float, wherever the counter is."""

import pytest

from repro.apps import SyntheticApp
from repro.net import Network
from repro.sim import Simulator


@pytest.mark.usefixtures("session_ids_kept")  # an app takes a port id
@pytest.mark.parametrize("counter", [0, 12_345, 2 ** 53 + 1, 2 ** 60])
@pytest.mark.parametrize("payload_floats", [0, 1, 16, 4096])
def test_series_is_the_comprehensions_list(counter, payload_floats):
    net = Network(Simulator())
    app = SyntheticApp(net.add_host("apphost"), "unit", "srv",
                       payload_floats=payload_floats)
    app.counter = counter
    series = app.update_payload()["series"]
    assert series == [float(counter + i) for i in range(payload_floats)]
    assert all(type(value) is float for value in series)
