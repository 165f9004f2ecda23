"""Unit tests for sessions, groups, and fan-out."""

import pytest

from repro.core.collaboration import (
    DEFAULT_GROUP,
    CollaborationError,
    CollaborationManager,
)
from repro.sim import Simulator
from repro.wire import ChatMessage, UpdateMessage


@pytest.fixture
def mgr(sim):
    return CollaborationManager(sim, "srv")


def test_client_ids_are_server_scoped(mgr):
    s1 = mgr.create_session("alice")
    s2 = mgr.create_session("bob")
    assert s1.client_id == "srv:c1"
    assert s2.client_id == "srv:c2"
    assert CollaborationManager.owner_server(s1.client_id) == "srv"


def test_owner_server_parses_complex_names():
    assert CollaborationManager.owner_server("rutgers-server:c17") == \
        "rutgers-server"


def test_session_lookup_and_error(mgr):
    s = mgr.create_session("alice")
    assert mgr.session(s.client_id) is s
    with pytest.raises(CollaborationError):
        mgr.session("srv:c999")


def test_subscribe_joins_default_group(mgr):
    s = mgr.create_session("alice")
    mgr.subscribe(s.client_id, "app-1")
    assert mgr.members_of("app-1") == [s.client_id]
    assert "app-1" in s.apps


def test_subgroups(mgr):
    a = mgr.create_session("alice")
    b = mgr.create_session("bob")
    for s in (a, b):
        mgr.subscribe(s.client_id, "app-1")
    mgr.join_group(a.client_id, "app-1", "numerics")
    assert mgr.members_of("app-1", "numerics") == [a.client_id]
    mgr.join_group(b.client_id, "app-1", "numerics")
    assert len(mgr.members_of("app-1", "numerics")) == 2
    mgr.leave_group(a.client_id, "app-1", "numerics")
    assert mgr.members_of("app-1", "numerics") == [b.client_id]


def test_join_group_requires_subscription(mgr):
    s = mgr.create_session("alice")
    with pytest.raises(CollaborationError):
        mgr.join_group(s.client_id, "app-1", "g")


def test_cannot_leave_default_group_directly(mgr):
    s = mgr.create_session("alice")
    mgr.subscribe(s.client_id, "app-1")
    with pytest.raises(CollaborationError):
        mgr.leave_group(s.client_id, "app-1", DEFAULT_GROUP)


def test_unsubscribe_leaves_all_groups(mgr):
    s = mgr.create_session("alice")
    mgr.subscribe(s.client_id, "app-1")
    mgr.join_group(s.client_id, "app-1", "g")
    mgr.unsubscribe(s.client_id, "app-1")
    assert mgr.members_of("app-1") == []
    assert mgr.members_of("app-1", "g") == []
    assert s.groups == set()


def test_drop_session_cleans_groups(mgr):
    s = mgr.create_session("alice")
    mgr.subscribe(s.client_id, "app-1")
    mgr.drop_session(s.client_id)
    assert mgr.members_of("app-1") == []
    assert mgr.session_count() == 0
    mgr.drop_session(s.client_id)  # idempotent


def test_broadcast_update_reaches_subscribers_only(mgr):
    a = mgr.create_session("alice")
    b = mgr.create_session("bob")
    c = mgr.create_session("carol")
    mgr.subscribe(a.client_id, "app-1")
    mgr.subscribe(b.client_id, "app-1")
    mgr.subscribe(c.client_id, "app-2")
    msg = UpdateMessage(payload={"x": 1}, app_id="app-1", msg_id=1)
    assert mgr.broadcast_update("app-1", msg) == 2
    assert len(a.buffer) == 1
    assert len(b.buffer) == 1
    assert len(c.buffer) == 0


def test_broadcast_group_excludes_sender(mgr):
    a = mgr.create_session("alice")
    b = mgr.create_session("bob")
    for s in (a, b):
        mgr.subscribe(s.client_id, "app-1")
    msg = ChatMessage("alice", "hi", msg_id=1)
    delivered = mgr.broadcast_group("app-1", DEFAULT_GROUP, msg,
                                    exclude=a.client_id)
    assert delivered == 1
    assert len(a.buffer) == 0
    assert len(b.buffer) == 1


def test_deliver_response_shares_with_group_when_enabled(mgr):
    a = mgr.create_session("alice")
    b = mgr.create_session("bob")
    for s in (a, b):
        mgr.subscribe(s.client_id, "app-1")
    msg = UpdateMessage(payload="result", app_id="app-1", msg_id=1)
    count = mgr.deliver_response(a.client_id, msg, app_id="app-1")
    assert count == 2  # requester + group member
    assert len(a.buffer) == 1 and len(b.buffer) == 1


def test_deliver_response_private_when_collab_disabled(mgr):
    a = mgr.create_session("alice")
    b = mgr.create_session("bob")
    for s in (a, b):
        mgr.subscribe(s.client_id, "app-1")
    mgr.set_collaboration(a.client_id, False)
    msg = UpdateMessage(payload="private", app_id="app-1", msg_id=1)
    count = mgr.deliver_response(a.client_id, msg, app_id="app-1")
    assert count == 1
    assert len(a.buffer) == 1 and len(b.buffer) == 0


def test_share_view_works_with_collab_disabled(mgr):
    a = mgr.create_session("alice")
    b = mgr.create_session("bob")
    for s in (a, b):
        mgr.subscribe(s.client_id, "app-1")
    mgr.set_collaboration(a.client_id, False)
    msg = UpdateMessage(payload="explicit-share", app_id="app-1",
                        msg_id=1)
    assert mgr.share_view(a.client_id, "app-1", DEFAULT_GROUP, msg) == 1
    assert len(b.buffer) == 1


def test_push_to_unknown_client_is_noop(mgr):
    msg = UpdateMessage(payload=1, msg_id=1)
    assert mgr.push_to_client("srv:c404", msg) is False


def test_bounded_buffers_count_drops(sim):
    mgr = CollaborationManager(sim, "srv", buffer_capacity=2)
    s = mgr.create_session("alice")
    mgr.subscribe(s.client_id, "app-1")
    for i in range(5):
        mgr.broadcast_update("app-1", UpdateMessage(payload=i,
                                                    app_id="app-1",
                                                    msg_id=i + 1))
    assert len(s.buffer) == 2
    assert s.dropped == 3
    assert mgr.dropped == 3
    assert mgr.delivered == 2


def test_local_subscribers(mgr):
    a = mgr.create_session("alice")
    b = mgr.create_session("bob")
    mgr.subscribe(a.client_id, "app-1")
    mgr.subscribe(b.client_id, "app-1")
    mgr.subscribe(b.client_id, "app-2")
    assert sorted(mgr.local_subscribers("app-1")) == [a.client_id,
                                                      b.client_id]
    assert mgr.local_subscribers("app-2") == [b.client_id]
