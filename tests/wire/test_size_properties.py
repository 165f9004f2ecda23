"""Property tests pinning the size-visitor fast path to the encoder.

The perf-critical invariant — ``encoded_size(x) == len(encode(x))`` —
is what lets the network layer account traffic bytes without ever
materializing wire bytes.  These tests pin it (and the round trip)
over the full value model: JSON-ish scalars and containers, ndarrays
of several dtypes, and registered message objects.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wire import (
    CommandMessage,
    UpdateMessage,
    decode,
    encode,
    encoded_size,
    freeze_size,
)

DTYPES = [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_,
          np.complex128]


def ndarrays():
    return st.builds(
        lambda dtype, shape, seed:
            np.random.default_rng(seed).integers(0, 100, size=shape)
            .astype(dtype),
        dtype=st.sampled_from(DTYPES),
        shape=st.one_of(
            st.tuples(st.integers(0, 30)),
            st.tuples(st.integers(0, 8), st.integers(0, 8)),
        ),
        seed=st.integers(0, 2 ** 16),
    )


def scalars():
    return st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
        st.floats(allow_nan=False),
        st.text(max_size=40),  # exercises both ascii and UTF-8 paths
        st.binary(max_size=40),
    )


def values():
    return st.recursive(
        st.one_of(scalars(), ndarrays()),
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(st.text(max_size=10), children, max_size=5),
        ),
        max_leaves=12,
    )


def messages():
    msg_ids = st.integers(1, 10**9)
    return st.one_of(
        st.builds(UpdateMessage, payload=values(), seq=st.integers(0, 999),
                  timestamp=st.floats(allow_nan=False), msg_id=msg_ids),
        st.builds(CommandMessage, command=st.text(max_size=20),
                  args=st.dictionaries(st.text(max_size=8), scalars(),
                                       max_size=4), msg_id=msg_ids),
    )


def _eq(a, b):
    """Deep equality where ndarrays compare by dtype/shape/value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and np.array_equal(a, b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_eq(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return (a.keys() == b.keys()
                and all(_eq(v, b[k]) for k, v in a.items()))
    return a == b


@settings(max_examples=200, deadline=None)
@given(values())
def test_size_matches_encode_over_value_model(value):
    assert encoded_size(value) == len(encode(value))


@settings(max_examples=200, deadline=None)
@given(values())
def test_roundtrip_over_value_model(value):
    assert _eq(decode(encode(value)), value)


@settings(max_examples=100, deadline=None)
@given(messages())
def test_size_matches_encode_for_registered_messages(msg):
    assert encoded_size(msg) == len(encode(msg))


@settings(max_examples=100, deadline=None)
@given(messages())
def test_roundtrip_for_registered_messages(msg):
    out = decode(encode(msg))
    assert type(out) is type(msg)
    assert _eq(vars(out), vars(msg))


@settings(max_examples=100, deadline=None)
@given(messages())
def test_frozen_size_matches_encode(msg):
    # freeze_size memoizes but must report the same exact byte count,
    # on the first call and on memo hits.
    first = freeze_size(msg)
    assert first == len(encode(msg))
    assert freeze_size(msg) == first
    assert encoded_size(msg) == first


def test_sizing_never_materializes_array_bytes():
    # A broadcast view whose nbytes is ~30 GB: any tobytes()/copy in the
    # sizing path would exhaust memory.  The exact formula value must come
    # back instantly.
    big = np.broadcast_to(np.float64(1.0), (60_000, 60_000))
    expected = (1 + 4 + len(big.dtype.str) + 4 + 4 * big.ndim + 4
                + big.dtype.itemsize * big.size)
    assert encoded_size(big) == expected
    assert encoded_size({"grid": big, "tag": "huge"}) > expected
