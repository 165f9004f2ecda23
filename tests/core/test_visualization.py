"""Tests for the visualization pool service."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.visualization import (
    VisualizationError,
    VisualizationService,
    ascii_render,
    downsample,
)


def test_downsample_1d_means():
    field = np.array([0.0, 0.0, 10.0, 10.0])
    view = downsample(field, 2)
    assert view.tolist() == [0.0, 10.0]


def test_downsample_1d_clamps_width():
    field = np.arange(4, dtype=float)
    view = downsample(field, 100)
    assert view.size == 4


def test_downsample_2d_shape_and_values():
    field = np.zeros((8, 8))
    field[:4, :4] = 4.0
    view = downsample(field, 2, 2)
    assert view.shape == (2, 2)
    assert view[0, 0] == pytest.approx(4.0)
    assert view[1, 1] == pytest.approx(0.0)


def test_downsample_rejects_3d():
    with pytest.raises(VisualizationError):
        downsample(np.zeros((2, 2, 2)), 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 200), st.integers(1, 40))
def test_downsample_preserves_mean_and_bounds(n, width):
    rng = np.random.default_rng(n)
    field = rng.normal(size=n)
    view = downsample(field, width)
    assert view.size == min(width, n)
    assert field.min() - 1e-9 <= view.min()
    assert view.max() <= field.max() + 1e-9
    if n % view.size == 0:  # equal blocks: mean preserved exactly
        assert view.mean() == pytest.approx(field.mean())


def test_ascii_render_shape_and_palette():
    view = np.array([[0.0, 1.0], [0.5, 0.25]])
    lines = ascii_render(view)
    assert len(lines) == 2
    assert all(len(line) == 2 for line in lines)
    assert lines[0][0] == " "  # minimum maps to the blank end
    assert lines[0][1] == "@"  # maximum maps to the dense end


def test_ascii_render_constant_field():
    lines = ascii_render(np.zeros((2, 3)))
    assert lines == ["   ", "   "]


def test_service_render_summary():
    svc = VisualizationService()
    field = np.linspace(0.0, 1.0, 1000)
    out = svc.render(field, width=10)
    assert out["view"].size == 10
    assert out["min"] == 0.0
    assert out["max"] == 1.0
    assert out["reduction"] == pytest.approx(100.0)
    assert svc.renders == 1


def test_service_render_validates():
    svc = VisualizationService()
    with pytest.raises(VisualizationError):
        svc.render(np.zeros(4), width=0)


def test_render_over_the_orb_saves_bytes():
    """The point of the pool service: the reduced view is much smaller on
    the wire than the full field."""
    from repro import build_single_server
    from repro.orb import ServiceOffer
    from repro.wire import encoded_size

    collab = build_single_server()
    collab.run_bootstrap()
    svc = VisualizationService()
    ref = collab.registry_orb.activate(svc, key="Viz")
    collab.trader.export(ServiceOffer(1, VisualizationService.SERVICE_ID, ref))
    server = collab.server_of(0)
    field = np.random.default_rng(0).normal(size=(64, 64))

    def scenario():
        out = yield from server.orb.invoke(ref, "render_ascii", field,
                                           width=16, height=8)
        return out

    out = collab.sim.run(until=collab.sim.spawn(scenario()))
    assert len(out["ascii"]) == 8
    assert out["reduction"] == pytest.approx(32.0)
    assert encoded_size(out["view"]) < encoded_size(field) / 20
