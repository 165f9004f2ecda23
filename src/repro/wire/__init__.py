"""Wire formats: serialization and typed messages.

DISCOVER moved Java objects between tiers (servlet responses, CORBA
requests); clients told Response, Error and Update messages apart "using
Java's reflection mechanism, by querying the received object for its class
name" (paper §4.1).  We reproduce both halves:

- :mod:`repro.wire.serialize` — a self-describing binary encoding used to
  compute *realistic byte sizes* for every message that crosses the simulated
  network (and exercised as a real codec: decode(encode(x)) == x).
- :mod:`repro.wire.messages` — the typed message hierarchy; receivers
  dispatch on ``type(msg).__name__`` exactly like the paper's clients.

Fast-path invariant: ``encoded_size(x) == len(encode(x))`` always holds,
but ``encoded_size`` never materializes encoded bytes (a dedicated size
visitor; ndarrays sized without a copy).  ``freeze_size`` memoizes the size
of a wire message the first time it is sent or fanned out — from that point
the message must be treated as frozen (not mutated).  The size is kept
beside the message, not on it (a weak-reference table keyed by ``id``), so
a copy of a frozen message is an ordinary unfrozen one.
"""

from repro.wire.messages import (
    AckMessage,
    ChatMessage,
    CommandMessage,
    ControlMessage,
    ErrorMessage,
    LockMessage,
    Message,
    RegisterMessage,
    ResponseMessage,
    UpdateMessage,
    WhiteboardMessage,
    message_type_name,
)
from repro.wire.serialize import (
    SerializationError,
    decode,
    encode,
    encoded_size,
    freeze_size,
    register_codec,
    set_encode_hook,
    set_object_walk_hook,
)

__all__ = [
    "AckMessage",
    "ChatMessage",
    "CommandMessage",
    "ControlMessage",
    "ErrorMessage",
    "LockMessage",
    "Message",
    "RegisterMessage",
    "ResponseMessage",
    "SerializationError",
    "UpdateMessage",
    "WhiteboardMessage",
    "decode",
    "encode",
    "encoded_size",
    "freeze_size",
    "message_type_name",
    "register_codec",
    "set_encode_hook",
    "set_object_walk_hook",
]
