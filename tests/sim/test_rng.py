"""Tests for the deterministic RNG tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import DeterministicRNG


def test_same_seed_same_stream():
    a = DeterministicRNG(7)
    b = DeterministicRNG(7)
    assert [a.uniform() for _ in range(5)] == [b.uniform() for _ in range(5)]


def test_different_seeds_differ():
    a = DeterministicRNG(1)
    b = DeterministicRNG(2)
    assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]


def test_children_are_independent_of_sibling_consumption():
    root1 = DeterministicRNG(0)
    a1 = root1.child("clients")
    _ = [root1.child("apps").exponential(1.0) for _ in range(10)]
    root2 = DeterministicRNG(0)
    a2 = root2.child("clients")
    assert [a1.uniform() for _ in range(5)] == [a2.uniform() for _ in range(5)]


def test_child_path_distinguishes_names():
    root = DeterministicRNG(0)
    x = root.child("x").uniform()
    y = root.child("y").uniform()
    assert x != y


def test_nested_children():
    rng = DeterministicRNG(0).child("a").child("b")
    assert rng.path == "root/a/b"


def test_integers_bounds():
    rng = DeterministicRNG(3)
    draws = [rng.integers(0, 10) for _ in range(200)]
    assert all(0 <= d < 10 for d in draws)
    assert len(set(draws)) > 3


def test_choice():
    rng = DeterministicRNG(3)
    seq = ["a", "b", "c"]
    assert all(rng.choice(seq) in seq for _ in range(20))
    with pytest.raises(ValueError):
        rng.choice([])


def test_exponential_positive():
    rng = DeterministicRNG(3)
    assert all(rng.exponential(2.0) >= 0 for _ in range(50))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.1, max_value=1e3),
       st.floats(min_value=0.0, max_value=0.5))
def test_jitter_bounds(value, fraction):
    rng = DeterministicRNG(5)
    out = rng.jitter(value, fraction)
    assert value * (1 - fraction) - 1e-9 <= out <= value * (1 + fraction) + 1e-9


#: mixed ranges: the unit default, the clients' ±20% jitter, negative and
#: straddling ones, integer bounds, a degenerate one and a huge finite one
UNIFORM_RANGES = [(0.0, 1.0), (0.8, 1.2), (-5.0, -1.5), (-3.0, 7.25),
                  (0, 10), (2.5, 2.5), (1e-300, 3e-300), (-1e307, 1e307)]


@pytest.mark.parametrize("seed", range(20))
def test_uniform_is_numpys_draw_bit_for_bit(seed):
    ours = DeterministicRNG(seed)
    numpys = DeterministicRNG(seed)._gen  # the same stream, drawn by numpy
    for _ in range(25):
        for low, high in UNIFORM_RANGES:
            assert ours.uniform(low, high) == float(numpys.uniform(low, high))
    assert ours.uniform() == float(numpys.uniform())


@pytest.mark.parametrize("low, high", [(1.0, 0.0), (0.0, -1e-300)])
def test_uniform_refuses_a_negative_range_as_numpy_does(low, high):
    with pytest.raises(ValueError):
        DeterministicRNG(0)._gen.uniform(low, high)
    with pytest.raises(ValueError):
        DeterministicRNG(0).uniform(low, high)


@pytest.mark.parametrize("low, high", [
    (0.0, float("inf")), (float("-inf"), 0.0), (float("nan"), 1.0),
    (0.0, float("nan")), (-1e308, 1e308)])
def test_uniform_refuses_a_non_finite_range_as_numpy_does(low, high):
    with pytest.raises(OverflowError):
        DeterministicRNG(0)._gen.uniform(low, high)
    with pytest.raises(OverflowError):
        DeterministicRNG(0).uniform(low, high)
