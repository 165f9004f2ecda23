"""Property tests: ndarray round-trips across dtypes and shapes.

The steering path ships NumPy fields (wavefields, saturation profiles)
through the serializer, so shape/dtype/value fidelity is load-bearing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wire import decode, encode, encoded_size

DTYPES = [np.float64, np.float32, np.int64, np.int32, np.int16, np.uint8,
          np.bool_, np.complex128]


@settings(max_examples=150, deadline=None)
@given(
    dtype=st.sampled_from(DTYPES),
    shape=st.one_of(
        st.tuples(st.integers(0, 40)),
        st.tuples(st.integers(0, 12), st.integers(0, 12)),
        st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
    ),
    seed=st.integers(0, 2 ** 16),
)
def test_ndarray_roundtrip_any_dtype_shape(dtype, shape, seed):
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 100, size=shape)
    arr = raw.astype(dtype)
    out = decode(encode(arr))
    assert out.dtype == arr.dtype
    assert out.shape == arr.shape
    assert np.array_equal(out, arr)


def test_non_contiguous_array_roundtrips():
    base = np.arange(64, dtype=np.float64).reshape(8, 8)
    view = base[::2, ::2]  # strided view
    assert not view.flags["C_CONTIGUOUS"]
    out = decode(encode(view))
    assert np.array_equal(out, view)


def test_fortran_ordered_array_roundtrips():
    arr = np.asfortranarray(np.arange(12, dtype=np.int32).reshape(3, 4))
    out = decode(encode(arr))
    assert np.array_equal(out, arr)


def test_decoded_array_is_writable_copy():
    arr = np.zeros(4)
    out = decode(encode(arr))
    out[0] = 1.0  # frombuffer results are read-only unless copied
    assert arr[0] == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2000))
def test_encoded_size_tracks_payload(n):
    small = encoded_size(np.zeros(n, dtype=np.float64))
    double = encoded_size(np.zeros(2 * n, dtype=np.float64))
    assert double - small == 8 * n  # pure payload growth, fixed framing


def test_array_inside_message_roundtrips():
    from repro.wire import UpdateMessage
    field = np.linspace(0, 1, 37).reshape(1, 37)
    msg = UpdateMessage(payload={"field": field}, seq=3, msg_id=1)
    out = decode(encode(msg))
    assert np.array_equal(out.payload["field"], field)
    assert out.seq == 3
