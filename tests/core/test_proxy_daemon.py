"""Unit tests for ApplicationProxy buffering and the daemon protocol."""

import pytest

from repro.core.proxy import ApplicationProxy
from repro.directory import home_server_of
from repro.steering.lifecycle import COMPUTING, INTERACTING
from repro.wire import CommandMessage


def make_proxy(sent):
    return ApplicationProxy(
        "srv#a1", "wave", {"parameters": []}, {"alice": "write"},
        app_host="apphost", app_port=20000, owner="alice",
        forward=lambda host, port, cmd: sent.append((host, port, cmd)))


def test_home_server_extraction():
    assert home_server_of("rutgers-server#a7") == "rutgers-server"
    assert home_server_of("srv#a1") == "srv"


def test_commands_buffer_during_compute():
    sent = []
    proxy = make_proxy(sent)
    assert proxy.phase == COMPUTING
    cmd = CommandMessage("get_param", {"name": "x"})
    assert proxy.deliver_command(cmd) is False
    assert sent == []
    assert proxy.commands_buffered == 1
    assert len(proxy.pending) == 1


def test_commands_forward_during_interaction():
    sent = []
    proxy = make_proxy(sent)
    proxy.on_phase(INTERACTING)
    cmd = CommandMessage("get_param", {"name": "x"})
    assert proxy.deliver_command(cmd) is True
    assert len(sent) == 1
    host, port, forwarded = sent[0]
    assert (host, port) == ("apphost", 20000)
    assert forwarded.app_id == "srv#a1"


def test_phase_transition_flushes_buffer_in_order():
    sent = []
    proxy = make_proxy(sent)
    c1 = CommandMessage("a")
    c2 = CommandMessage("b")
    proxy.deliver_command(c1)
    proxy.deliver_command(c2)
    flushed = proxy.on_phase(INTERACTING)
    assert flushed == 2
    assert [c.command for (_, _, c) in sent] == ["a", "b"]
    assert len(proxy.pending) == 0
    # back to compute: buffering resumes
    proxy.on_phase(COMPUTING)
    proxy.deliver_command(CommandMessage("c"))
    assert len(proxy.pending) == 1


def test_stopped_proxy_rejects_commands():
    proxy = make_proxy([])
    proxy.deliver_command(CommandMessage("x"))
    proxy.mark_stopped()
    assert len(proxy.pending) == 0  # cleared
    with pytest.raises(RuntimeError):
        proxy.deliver_command(CommandMessage("y"))


def test_on_update_tracks_latest():
    from repro.wire import UpdateMessage
    proxy = make_proxy([])
    u1 = UpdateMessage(payload=1, seq=1)
    u2 = UpdateMessage(payload=2, seq=2)
    proxy.on_update(u1)
    proxy.on_update(u2)
    assert proxy.last_update is u2
    assert proxy.updates_received == 2


def test_remote_subscriber_management():
    proxy = make_proxy([])
    proxy.subscribe_server("peer-1")
    proxy.subscribe_server("peer-1")  # idempotent
    proxy.subscribe_server("peer-2")
    assert proxy.remote_subscribers == {"peer-1", "peer-2"}
    proxy.unsubscribe_server("peer-1")
    assert proxy.remote_subscribers == {"peer-2"}


def test_summary_shape():
    proxy = make_proxy([])
    s = proxy.summary("write")
    assert s == {"app_id": "srv#a1", "name": "wave", "active": True,
                 "phase": COMPUTING, "privilege": "write"}
    assert "privilege" not in proxy.summary()


# -- daemon protocol through a live server ------------------------------

def test_daemon_assigns_sequential_app_ids():
    from repro import AppConfig, build_single_server
    from repro.apps import SyntheticApp

    collab = build_single_server()
    collab.run_bootstrap()
    cfg = AppConfig(steps_per_phase=1, step_time=0.01,
                    interaction_window=0.02)
    a1 = collab.add_app(0, SyntheticApp, "one", acl={"u": "write"},
                        config=cfg)
    a2 = collab.add_app(0, SyntheticApp, "two", acl={"u": "write"},
                        config=cfg)
    collab.sim.run(until=2.0)
    server = collab.domains[0].server.name
    assert a1.app_id == f"{server}#a1"
    assert a2.app_id == f"{server}#a2"


def test_daemon_rejects_bad_app_token():
    from repro import AppConfig, build_single_server
    from repro.apps import SyntheticApp

    collab = build_single_server()
    collab.run_bootstrap()
    server = collab.server_of(0)
    server.security.app_tokens["impostor"] = "the-real-token"
    app = collab.add_app(0, SyntheticApp, "impostor",
                         acl={"u": "write"},
                         config=AppConfig(register_timeout=5.0),
                         auth_token="wrong-token")
    collab.sim.run(until=8.0)
    assert not app.registered
    assert app.state == "stopped"
    assert server.local_proxies == {}


def test_app_deregisters_after_total_steps():
    from repro import AppConfig, build_single_server
    from repro.apps import SyntheticApp

    collab = build_single_server()
    collab.run_bootstrap()
    app = collab.add_app(
        0, SyntheticApp, "finite", acl={"u": "write"},
        config=AppConfig(steps_per_phase=5, step_time=0.01,
                         interaction_window=0.01, total_steps=10))
    collab.sim.run(until=5.0)
    assert app.state == "stopped"
    assert app.step_index == 10
    server = collab.server_of(0)
    proxy = server.local_proxies[app.app_id]
    assert not proxy.active
