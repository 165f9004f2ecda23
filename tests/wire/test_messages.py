"""Tests for the typed message hierarchy and its wire round-trips."""

import pytest

from repro.sim import Simulator
from repro.wire import (
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
    decode,
    encode,
    message_type_name,
)


def test_msg_ids_unique_and_increasing():
    sim = Simulator()
    a = UpdateMessage(payload=1, msg_id=sim.next_id("msg"))
    b = UpdateMessage(payload=2, msg_id=sim.next_id("msg"))
    assert b.msg_id > a.msg_id


def test_type_name_dispatch():
    assert message_type_name(UpdateMessage(payload=0, msg_id=1)) == "UpdateMessage"
    assert message_type_name(ErrorMessage(1, "x", msg_id=2)) == "ErrorMessage"
    assert message_type_name(ResponseMessage(1, msg_id=3)) == "ResponseMessage"


def test_message_type_name_rejects_non_message():
    with pytest.raises(TypeError):
        message_type_name({"not": "a message"})


def test_default_channels_match_paper():
    # §4.1/§5.1: Main for registration+updates, Command for requests,
    # Response for replies, Control for server-to-server events.
    assert RegisterMessage("app", "tok", {}, {}, msg_id=1).channel == "main"
    assert UpdateMessage(msg_id=2).channel == "main"
    assert CommandMessage("get", msg_id=3).channel == "command"
    assert ResponseMessage(1, msg_id=4).channel == "response"
    assert ErrorMessage(1, "e", msg_id=5).channel == "response"
    assert ControlMessage("event", msg_id=6).channel == "control"


def test_command_request_id_defaults_to_msg_id():
    cmd = CommandMessage("pause", msg_id=Simulator().next_id("msg"))
    assert cmd.request_id == cmd.msg_id
    explicit = CommandMessage("pause", request_id=99, msg_id=2)
    assert explicit.request_id == 99


@pytest.mark.parametrize("msg", [
    RegisterMessage("wave1", "secret", {"params": ["dt"]}, {"alice": "steer"},
                    msg_id=1),
    UpdateMessage(payload={"step": 10}, seq=3, timestamp=1.25, msg_id=2),
    CommandMessage("set_param", {"name": "dt", "value": 0.01}, msg_id=3),
    ResponseMessage(7, result={"ok": True}, msg_id=4),
    ErrorMessage(9, "denied", code="AUTH", msg_id=5),
    ControlMessage("server_down", detail="d2-server", msg_id=6),
    AckMessage(4, ok=False, info="rejected", msg_id=7),
    LockMessage("acquire", holder="alice", msg_id=8),
    ChatMessage("bob", "hello group", msg_id=9),
    WhiteboardMessage("carol", "line", [(0, 0), (1, 1)], msg_id=10),
])
def test_messages_roundtrip_on_wire(msg):
    out = decode(encode(msg))
    assert type(out) is type(msg)
    assert vars(out) == vars(msg)


def test_message_equality_and_hash():
    m = ChatMessage("a", "hi", msg_id=1)
    clone = decode(encode(m))
    assert clone == m
    assert hash(clone) == hash(m)
    assert ChatMessage("a", "hi", msg_id=2) != m  # different msg_id


def test_envelope_fields():
    m = CommandMessage("go", sender="client-1", destination="d0-server",
                       app_id="app-3", client_id="c-1", msg_id=1)
    assert m.sender == "client-1"
    assert m.destination == "d0-server"
    assert m.app_id == "app-3"
    assert m.client_id == "c-1"


def test_update_payload_sizes_differ_on_wire():
    small = UpdateMessage(payload=list(range(4)), msg_id=1)
    large = UpdateMessage(payload=list(range(4000)), msg_id=2)
    assert len(encode(large)) > len(encode(small))
