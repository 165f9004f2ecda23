"""Tests for the InteractionAgent and the application lifecycle protocol."""

import pytest

from repro import AppConfig, build_single_server
from repro.apps import SyntheticApp
from repro.net import Network
from repro.sim import Simulator
from repro.steering import (
    COMPUTING,
    INTERACTING,
    PAUSED,
    STOPPED,
    InteractionAgent,
    SteeringError,
)
from repro.steering.application import SteerableApplication
from repro.wire import ControlMessage, RegisterMessage, UpdateMessage


def standalone_app(sim=None):
    """An app wired to a host but never started (agent tests)."""
    sim = sim or Simulator()
    net = Network(sim)
    host = net.add_host("apphost")
    net.add_host("srv")
    net.add_link("apphost", "srv", 0.001)
    return SyntheticApp(host, "unit", "srv")


# ------------------------------- agent -------------------------------------

def test_agent_get_set_param():
    app = standalone_app()
    agent = app.agent
    assert agent.handle("get_param", {"name": "gain"}) == 1.0
    assert agent.handle("set_param", {"name": "gain", "value": 2.0}) == 2.0
    assert app.gain.value == 2.0


def test_agent_read_sensor_and_actuate():
    app = standalone_app()
    app.counter = 5
    assert app.agent.handle("read_sensor", {"name": "counter"}) == 5
    result = app.agent.handle("actuate", {"name": "mark", "label": "here"})
    assert result == {"marks": 1}
    assert app.marks == [(0, "here")]


def test_agent_describe_and_list_params():
    app = standalone_app()
    desc = app.agent.handle("describe", {})
    assert {p["name"] for p in desc["parameters"]} == {"gain", "bias"}
    params = app.agent.handle("list_params", {})
    assert len(params) == 2


def test_agent_status():
    app = standalone_app()
    status = app.agent.handle("status", {})
    assert status["name"] == "unit"
    assert status["state"] == "registering"


def test_agent_unknown_command():
    app = standalone_app()
    with pytest.raises(SteeringError):
        app.agent.handle("self_destruct", {})


def test_agent_lifecycle_commands():
    app = standalone_app()
    assert app.agent.handle("pause", {}) == PAUSED
    assert app.agent.handle("resume", {}) == INTERACTING
    assert app.agent.handle("stop", {}) == STOPPED
    with pytest.raises(SteeringError):
        app.agent.handle("pause", {})  # already stopped


def test_agent_counts_commands():
    app = standalone_app()
    app.agent.handle("status", {})
    app.agent.handle("status", {})
    assert app.agent.commands_handled == 2


# ----------------------------- lifecycle protocol ----------------------------

def test_app_cannot_start_twice():
    app = standalone_app()
    app.start()
    with pytest.raises(SteeringError):
        app.start()


def test_registration_timeout_stops_app():
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("apphost")
    net.add_host("srv")  # no daemon listening
    net.add_link("apphost", "srv", 0.001)
    app = SyntheticApp(host, "orphan", "srv",
                       config=AppConfig(register_timeout=2.0))
    proc = app.start()
    sim.run(until=proc)
    assert not app.registered
    assert app.state == STOPPED
    assert sim.now >= 2.0


def test_phase_events_reach_server():
    collab = build_single_server()
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "phased", acl={"u": "write"},
                         config=AppConfig(steps_per_phase=2, step_time=0.01,
                                          interaction_window=0.02))
    collab.sim.run(until=2.0)
    proxy = collab.server_of(0).local_proxies[app.app_id]
    # the proxy tracked at least one full compute→interaction round trip
    assert proxy.phase in (COMPUTING, INTERACTING)
    assert proxy.updates_received >= 1


def test_update_payload_contains_monitored_sensors():
    app = standalone_app()
    app.counter = 3
    payload = app.update_payload()
    assert payload["counter"] == 3
    assert payload["_state"] == "registering"
    assert "_step" in payload
    assert len(payload["series"]) == app.payload_floats


def test_register_message_carries_interface_and_acl():
    app = standalone_app()
    reg = RegisterMessage(app.name, app.auth_token,
                          app.control.interface_descriptor(), app.acl,
                          msg_id=1)
    assert reg.app_name == "unit"
    assert "parameters" in reg.interface


def test_paused_app_still_serves_interaction():
    collab = build_single_server()
    collab.run_bootstrap()
    app = collab.add_app(
        0, SyntheticApp, "pausable", acl={"alice": "write"},
        config=AppConfig(steps_per_phase=2, step_time=0.01,
                         interaction_window=0.05, paused_poll=0.1))
    collab.sim.run(until=2.0)
    portal = collab.add_portal(0)

    def scenario():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        yield from session.acquire_lock()
        yield from session.pause()
        assert app.state == PAUSED
        # even paused, queries are served (paused interaction loop)
        value = yield from session.get_param("gain")
        yield from session.resume()
        assert app.state != PAUSED
        yield from session.steer("stop")
        return value

    value = collab.sim.run(until=collab.sim.spawn(scenario()))
    assert value == 1.0
    assert app.state == STOPPED
