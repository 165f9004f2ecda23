"""A small self-describing binary serializer.

This is the reproduction's stand-in for Java object serialization (the
servlet tier) and CORBA CDR (the server-to-server tier).  It serves two
purposes:

1. **Byte accounting** — every message that crosses the simulated network is
   charged ``encoded_size(msg)`` bytes, so bandwidth and traffic experiments
   (E3, E4, E11) measure something real rather than guessed constants.
2. **A real codec** — ``decode(encode(x)) == x`` round-trips the full value
   model, which property tests verify with hypothesis.

Format: one type tag byte, then a big-endian payload.  Containers carry a
4-byte element count.  Strings are UTF-8 with a 4-byte length.  NumPy arrays
carry dtype + shape + raw bytes.  Registered application types (messages)
carry their registered name and a dict of fields — comparable in framing
overhead to Java serialization's class descriptors.

Fast path invariant: :func:`encoded_size` computes exact byte counts with a
dedicated size visitor — no encoded bytes are materialized (ndarrays are
sized as ``dtype.itemsize * size`` with no copy) — and is pinned by property
test to ``encoded_size(x) == len(encode(x))`` over the full value model.
:func:`freeze_size` additionally memoizes the size of a registered wire
object, so a message fanned out to N subscribers is walked exactly once;
callers must treat a message as **frozen** (immutable) once it has been
sent or pushed into a fan-out buffer.  The memo is one ``id``-keyed table
of weak references that carry the size (:class:`_FrozenSize`): an entry
costs one small object, dies with its message, and is never copied — a
``copy.deepcopy`` or a decoded copy is a new object and starts unfrozen.
"""

from __future__ import annotations

import struct
import weakref
from itertools import repeat
from operator import countOf
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

# type tag bytes
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"I"
_T_BIGINT = b"J"
_T_FLOAT = b"D"
_T_STR = b"S"
_T_BYTES = b"B"
_T_LIST = b"L"
_T_TUPLE = b"t"
_T_DICT = b"M"
_T_NDARRAY = b"A"
_T_OBJECT = b"O"


class SerializationError(Exception):
    """Raised when a value cannot be encoded or a buffer cannot be decoded."""


# Registered application types: name -> (class, wire field names).  The
# names are None for a ``__dict__``-backed class, whose fields are whatever
# ``vars(obj)`` holds, in order.
_registry: Dict[str, Tuple[type, Optional[Tuple[str, ...]]]] = {}
_by_class: Dict[type, str] = {}
#: sizing metadata per registered class: (bytes that do not depend on the
#: instance, wire field names) — the tag and the registered name, and with
#: explicit field names (not None) their encoded keys as well, which leaves
#: only the values to walk
_obj_size_info: Dict[type, Tuple[int, Optional[Tuple[str, ...]]]] = {}


def register_codec(cls: type, name: str | None = None,
                   fields: Tuple[str, ...] | None = None) -> type:
    """Register ``cls`` so instances can cross the wire.

    By default the wire fields are the instance ``__dict__`` and decoding
    is ``cls.__new__`` + attribute assignment (our message classes);
    usable as a decorator.  A ``__slots__`` class names its wire
    ``fields`` in order instead — a slot left out is not a wire field
    (``GiopRequest.service_context``).
    """
    key = name or cls.__qualname__
    if key in _registry and _registry[key][0] is not cls:
        raise SerializationError(f"codec name {key!r} already registered")
    _registry[key] = (cls, fields)
    _by_class[cls] = key
    if not issubclass(cls, (int, float, str, bytes, bytearray, list, tuple,
                            dict, np.ndarray)):
        # encode() would treat instances of builtin subclasses as the
        # builtin (its isinstance chain runs before the registry check),
        # so only plain classes take the object sizing fast path
        fixed = 5 + len(key.encode("utf-8"))
        if fields is not None:
            fixed += sum(_size_str(f) for f in fields)
        _obj_size_info[cls] = (fixed, fields)
    return cls


def _fields_of(obj: Any, fields: Optional[Tuple[str, ...]]) -> dict:
    if fields is None:
        return vars(obj)
    return {name: getattr(obj, name) for name in fields}


def _pack_len(n: int) -> bytes:
    return struct.pack(">I", n)


#: test instrumentation: when set, called with each value passed to
#: ``encode`` — the zero-copy loopback contract ("``encode()`` is never
#: called on the send path") is pinned by a test installing a hook here
_encode_hook: Optional[Callable[[Any], None]] = None


def set_encode_hook(
        hook: Optional[Callable[[Any], None]]) -> Optional[Callable]:
    """Install (or clear) the encode-call hook; returns the previous one."""
    global _encode_hook
    previous, _encode_hook = _encode_hook, hook
    return previous


def encode(value: Any) -> bytes:
    """Encode ``value`` to bytes."""
    if _encode_hook is not None:
        _encode_hook(value)
    out: list[bytes] = []
    _encode_into(value, out)
    return b"".join(out)


def _encode_into(value: Any, out: list) -> None:
    if value is None:
        out.append(_T_NONE)
    elif value is True:
        out.append(_T_TRUE)
    elif value is False:
        out.append(_T_FALSE)
    elif isinstance(value, int):
        if -(2 ** 63) <= value < 2 ** 63:
            out.append(_T_INT)
            out.append(struct.pack(">q", value))
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8 + 1,
                                 "big", signed=True)
            out.append(_T_BIGINT)
            out.append(_pack_len(len(raw)))
            out.append(raw)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out.append(struct.pack(">d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        out.append(_T_STR)
        out.append(_pack_len(len(raw)))
        out.append(raw)
    elif isinstance(value, (bytes, bytearray)):
        out.append(_T_BYTES)
        out.append(_pack_len(len(value)))
        # already-bytes values go in as-is (no redundant copy)
        out.append(value if type(value) is bytes else bytes(value))
    elif isinstance(value, list):
        out.append(_T_LIST)
        out.append(_pack_len(len(value)))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, tuple):
        out.append(_T_TUPLE)
        out.append(_pack_len(len(value)))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out.append(_pack_len(len(value)))
        for k, v in value.items():
            _encode_into(k, out)
            _encode_into(v, out)
    elif isinstance(value, np.ndarray):
        dtype_name = value.dtype.str.encode("ascii")
        if value.flags.c_contiguous:
            raw = value.tobytes()
        else:
            raw = np.ascontiguousarray(value).tobytes()
        out.append(_T_NDARRAY)
        out.append(_pack_len(len(dtype_name)))
        out.append(dtype_name)
        out.append(_pack_len(value.ndim))
        for dim in value.shape:
            out.append(_pack_len(dim))
        out.append(_pack_len(len(raw)))
        out.append(raw)
    elif isinstance(value, (np.integer,)):
        _encode_into(int(value), out)
    elif isinstance(value, (np.floating,)):
        _encode_into(float(value), out)
    elif type(value) in _by_class:
        key = _by_class[type(value)]
        raw_key = key.encode("utf-8")
        out.append(_T_OBJECT)
        out.append(_pack_len(len(raw_key)))
        out.append(raw_key)
        _encode_into(_fields_of(value, _registry[key][1]), out)
    else:
        raise SerializationError(
            f"cannot encode value of type {type(value).__name__}: {value!r}")


def decode(buffer: bytes) -> Any:
    """Decode bytes produced by :func:`encode` back to a value."""
    value, offset = _decode_from(buffer, 0)
    if offset != len(buffer):
        raise SerializationError(
            f"{len(buffer) - offset} trailing bytes after decoded value")
    return value


def _read_len(buf: bytes, off: int) -> Tuple[int, int]:
    if off + 4 > len(buf):
        raise SerializationError("truncated length field")
    return struct.unpack_from(">I", buf, off)[0], off + 4


def _decode_from(buf: bytes, off: int) -> Tuple[Any, int]:
    if off >= len(buf):
        raise SerializationError("truncated buffer (no tag)")
    tag = buf[off:off + 1]
    off += 1
    if tag == _T_NONE:
        return None, off
    if tag == _T_TRUE:
        return True, off
    if tag == _T_FALSE:
        return False, off
    if tag == _T_INT:
        if off + 8 > len(buf):
            raise SerializationError("truncated int")
        return struct.unpack_from(">q", buf, off)[0], off + 8
    if tag == _T_BIGINT:
        n, off = _read_len(buf, off)
        if off + n > len(buf):
            raise SerializationError("truncated bigint")
        return int.from_bytes(buf[off:off + n], "big", signed=True), off + n
    if tag == _T_FLOAT:
        if off + 8 > len(buf):
            raise SerializationError("truncated float")
        return struct.unpack_from(">d", buf, off)[0], off + 8
    if tag == _T_STR:
        n, off = _read_len(buf, off)
        if off + n > len(buf):
            raise SerializationError("truncated string")
        return buf[off:off + n].decode("utf-8"), off + n
    if tag == _T_BYTES:
        n, off = _read_len(buf, off)
        if off + n > len(buf):
            raise SerializationError("truncated bytes")
        return buf[off:off + n], off + n
    if tag in (_T_LIST, _T_TUPLE):
        n, off = _read_len(buf, off)
        items = []
        for _ in range(n):
            item, off = _decode_from(buf, off)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), off
    if tag == _T_DICT:
        n, off = _read_len(buf, off)
        result = {}
        for _ in range(n):
            k, off = _decode_from(buf, off)
            v, off = _decode_from(buf, off)
            result[k] = v
        return result, off
    if tag == _T_NDARRAY:
        n, off = _read_len(buf, off)
        dtype = np.dtype(buf[off:off + n].decode("ascii"))
        off += n
        ndim, off = _read_len(buf, off)
        shape = []
        for _ in range(ndim):
            dim, off = _read_len(buf, off)
            shape.append(dim)
        nbytes, off = _read_len(buf, off)
        if off + nbytes > len(buf):
            raise SerializationError("truncated ndarray payload")
        arr = np.frombuffer(buf[off:off + nbytes], dtype=dtype).reshape(shape)
        return arr.copy(), off + nbytes
    if tag == _T_OBJECT:
        n, off = _read_len(buf, off)
        key = buf[off:off + n].decode("utf-8")
        off += n
        fields, off = _decode_from(buf, off)
        if key not in _registry:
            raise SerializationError(f"unknown object type {key!r}")
        cls, names = _registry[key]
        obj = cls.__new__(cls)
        if names is None:
            obj.__dict__.update(fields)
        else:
            for name, value in fields.items():
                setattr(obj, name, value)
        return obj, off
    raise SerializationError(f"unknown type tag {tag!r} at offset {off - 1}")


# ---------------------------------------------------------------------------
# Sizing fast path
# ---------------------------------------------------------------------------
#
# ``encoded_size`` used to be ``len(encode(x))`` — a full encode (including
# an ``ndarray.tobytes()`` copy) performed purely for byte accounting, once
# per hop and once per fan-out target.  The size visitor below computes the
# identical byte count with zero allocation, and ``freeze_size`` memoizes
# the total for registered wire objects so a message broadcast to N
# subscribers (or re-sent on a retry) is walked exactly once.


class _FrozenSize(weakref.ref):
    """One memo entry: a weak reference to a frozen object that carries
    the object's ``id`` (its key in :data:`_FROZEN_SIZES`) and its size.

    Nearly every message is sent once, so the entry has to cost less than
    the walk it saves: it is the only object made per frozen message, and
    every entry shares one callback, :func:`_thaw`.
    """

    __slots__ = ("key", "size")


#: memoized sizes of *frozen* registered objects, keyed by ``id``.  The
#: interpreter runs an entry's callback while its object is being torn
#: down — before the memory, and with it the ``id``, can be handed to a new
#: object — so a live entry can never alias a recycled id.
_FROZEN_SIZES: Dict[int, _FrozenSize] = {}


def _thaw(entry: _FrozenSize, _pop=_FROZEN_SIZES.pop) -> None:
    _pop(entry.key, None)


#: test/bench instrumentation: when set, called with each registered object
#: whose fields are fully walked for sizing (i.e. on every memo *miss*).
_object_walk_hook: Optional[Callable[[Any], None]] = None


def set_object_walk_hook(
        hook: Optional[Callable[[Any], None]]) -> Optional[Callable]:
    """Install (or clear) the sizing-walk hook; returns the previous one."""
    global _object_walk_hook
    previous, _object_walk_hook = _object_walk_hook, hook
    return previous


def _size_int(value: int) -> int:
    if -(2 ** 63) <= value < 2 ** 63:
        return 9
    return 5 + (value.bit_length() + 8) // 8 + 1


def _size_str(value: str) -> int:
    if value.isascii():  # UTF-8 length fast path
        return 5 + len(value)
    return 5 + len(value.encode("utf-8"))


#: a list or tuple at least this long is first asked, in one C-level pass,
#: whether it holds nothing but floats (a sampled series, a flattened
#: grid); anything shorter is cheaper to walk element by element
_FLOAT_RUN = 64


def _size_seq(value) -> int:
    """A list or tuple: its header and its elements."""
    n = len(value)
    if n >= _FLOAT_RUN and countOf(map(type, value), float) == n:
        return 5 + 9 * n
    return _size_items(value)


def _size_items(items) -> int:
    """A sequence header and every item of an iterable."""
    # Scalar cases are unrolled inline: sequence/dict elements are
    # overwhelmingly str/float/int, and the extra dispatch call per element
    # is the dominant cost of the walk.
    size_of = _size_of
    total = 5
    for v in items:
        tv = type(v)
        if tv is str:
            total += 5 + (len(v) if v.isascii() else len(v.encode("utf-8")))
        elif tv is float:
            total += 9
        elif tv is int:
            total += (9 if -(2 ** 63) <= v < 2 ** 63
                      else 5 + (v.bit_length() + 8) // 8 + 1)
        elif tv is bool or v is None:
            total += 1
        else:
            total += size_of(v)
    return total


def _size_dict(value: dict) -> int:
    size_of = _size_of
    total = 5
    for k, v in value.items():
        if type(k) is str:
            total += 5 + (len(k) if k.isascii() else len(k.encode("utf-8")))
        else:
            total += size_of(k)
        tv = type(v)
        if tv is str:
            total += 5 + (len(v) if v.isascii() else len(v.encode("utf-8")))
        elif tv is float:
            total += 9
        elif tv is int:
            total += (9 if -(2 ** 63) <= v < 2 ** 63
                      else 5 + (v.bit_length() + 8) // 8 + 1)
        elif tv is bool or v is None:
            total += 1
        else:
            total += size_of(v)
    return total


def _size_ndarray(value: np.ndarray) -> int:
    # dtype.str is always ASCII; payload is itemsize * size — no copy.
    return 1 + 4 + len(value.dtype.str) + 4 + 4 * value.ndim \
        + 4 + value.dtype.itemsize * value.size


#: exact-type dispatch for the common value model (hot path); subclasses and
#: numpy scalars fall back to the isinstance chain in ``_size_of``
_SIZERS: Dict[type, Callable[[Any], int]] = {
    type(None): lambda _v: 1,
    bool: lambda _v: 1,
    int: _size_int,
    float: lambda _v: 9,
    str: _size_str,
    bytes: lambda v: 5 + len(v),
    bytearray: lambda v: 5 + len(v),
    list: _size_seq,
    tuple: _size_seq,
    dict: _size_dict,
    np.ndarray: _size_ndarray,
}


def _walk_object(value: Any, info: tuple) -> int:
    """Size a registered object field by field (every memo *miss*)."""
    if _object_walk_hook is not None:
        _object_walk_hook(value)
    fixed, fields = info
    if fields is None:
        return fixed + _size_dict(vars(value))
    # the keys are in ``fixed``; the 5 bytes _size_items counts for a
    # sequence header are those of the field dict nobody builds
    return fixed + _size_items(map(getattr, repeat(value), fields))


def _size_of(value: Any) -> int:
    """Exact ``len(encode(value))`` without materializing any bytes."""
    tp = type(value)
    sizer = _SIZERS.get(tp)
    if sizer is not None:
        return sizer(value)
    info = _obj_size_info.get(tp)
    if info is not None:
        entry = _FROZEN_SIZES.get(id(value))
        if entry is not None:
            return entry.size
        return _walk_object(value, info)
    # Slow path: subclasses and numpy scalars, mirroring _encode_into's
    # isinstance chain exactly.
    if value is True or value is False:
        return 1
    if isinstance(value, int):
        return _size_int(value)
    if isinstance(value, float):
        return 9
    if isinstance(value, str):
        return _size_str(value)
    if isinstance(value, (bytes, bytearray)):
        return 5 + len(value)
    if isinstance(value, (list, tuple)):
        return _size_seq(value)
    if isinstance(value, dict):
        return _size_dict(value)
    if isinstance(value, np.ndarray):
        return _size_ndarray(value)
    if isinstance(value, np.integer):
        return _size_int(int(value))
    if isinstance(value, np.floating):
        return 9
    raise SerializationError(
        f"cannot encode value of type {type(value).__name__}: {value!r}")


def encoded_size(value: Any) -> int:
    """Number of bytes :func:`encode` would produce for ``value``.

    Computed by a dedicated size visitor: no encoded bytes are materialized
    and ndarrays are sized without a ``tobytes()`` copy.  The invariant
    ``encoded_size(x) == len(encode(x))`` is pinned by property tests.
    """
    return _size_of(value)


def freeze_size(value: Any) -> int:
    """Size ``value`` and memoize the result if it is a registered object.

    Callers on the wire path (network send, ORB marshalling, collaboration
    fan-out) use this so a message delivered to N subscribers or forwarded
    across multiple hops is sized exactly once.  From the first call on the
    object must be treated as *frozen*: mutating a message after it has
    been sent or buffered for fan-out yields stale byte accounting.

    The size is held in :data:`_FROZEN_SIZES` by a :class:`_FrozenSize`
    for as long as the object lives.  A copy — ``copy.deepcopy``, or what
    a ``strict_wire`` network decodes — is another object with another
    ``id``: it is not frozen and is walked when first sized.  An instance
    of a registered class that cannot be weakly referenced (``__slots__``
    without ``__weakref__``) cannot take the memo and is sized on every
    call.
    """
    info = _obj_size_info.get(type(value))
    if info is None:
        return _size_of(value)
    key = id(value)
    entry = _FROZEN_SIZES.get(key)
    if entry is not None:
        return entry.size
    size = _walk_object(value, info)
    try:
        entry = _FrozenSize(value, _thaw)
    except TypeError:  # not weak-referenceable: size it, don't memoize
        return size
    entry.key = key
    entry.size = size
    _FROZEN_SIZES[key] = entry
    return size
