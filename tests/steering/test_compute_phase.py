"""A compute phase is one timer (DESIGN §4e): its steps run back to back at
the phase's start, the phase ends at the accumulated instant, and a
lifecycle request takes effect at a phase boundary, never between steps."""

import pytest

from repro import AppConfig, build_collaboratory
from repro.apps import SyntheticApp
from repro.core.services import deploy_pool_services
from repro.net import Network
from repro.sim import Simulator
from repro.steering import COMPUTING, STOPPED
from repro.steering.application import DAEMON_PORT
from repro.wire import AckMessage, ControlMessage, RegisterMessage

pytestmark = pytest.mark.usefixtures("session_ids_kept")


def noting_sends(app, on_compute):
    """Wrap ``app._send``: every message goes into the returned list as
    ``(now, msg)``, and ``on_compute(now)`` runs at each compute phase's
    announcement."""
    sent, plain = [], app._send

    def send(msg):
        sent.append((app.sim.now, msg))
        if (isinstance(msg, ControlMessage) and msg.event == "phase"
                and msg.detail == COMPUTING):
            on_compute(app.sim.now)
        plain(msg)

    app._send = send
    return sent


def test_cancel_job_stops_the_app_at_the_end_of_its_compute_phase():
    """``CogJobService.cancel_job`` lands inside a compute phase; the app
    finishes the phase's four steps and stops at the phase's end instant,
    where it sends its final update and deregisters."""
    collab = build_collaboratory(1, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    cog = deploy_pool_services(collab, staging_time=0.5)["cog"]
    cog.register_application_type("synthetic", SyntheticApp)
    sim = collab.sim

    def scenario():
        job = yield from cog.submit_job(
            "synthetic", "doomed", 0, {"u": "write"},
            {"steps_per_phase": 4, "step_time": 0.01,
             "interaction_window": 0.05})
        (app,) = [a for a in collab.apps if a.name == "doomed"]
        phase = sim.event()
        sent = noting_sends(
            app, lambda now: phase.triggered or phase.succeed(now))
        start = yield phase
        yield sim.timeout(0.015)
        assert app.state == COMPUTING
        cancelled_at = sim.now
        cog.cancel_job(job["job_id"])
        yield app.process
        return app, sent, start, cancelled_at

    app, sent, start, cancelled_at = sim.run(until=sim.spawn(scenario()))
    end = start
    for _ in range(4):
        end += 0.01
    assert start < cancelled_at < end
    assert app.state == STOPPED and app.step_index % 4 == 0
    after = [(now, type(msg).__name__, getattr(msg, "event", None))
             for now, msg in sent if now > cancelled_at]
    assert after == [(end, "UpdateMessage", None),
                     (end, "ControlMessage", "deregister"),
                     (end, "UpdateMessage", None)]
    assert sent[-1][1].payload["_state"] == STOPPED


def cycle_events(steps_per_phase: int) -> int:
    """Kernel events one application cycle (compute phase, update,
    interaction window) dispatches, against a daemon that only acks."""
    sim = Simulator()
    net = Network(sim)
    for name in ("apphost", "srv"):
        net.add_host(name)
    net.add_link("apphost", "srv", 0.001)
    daemon = net.hosts["srv"].bind(DAEMON_PORT)

    def ack_registrations():
        while True:
            frame = yield daemon.recv()
            if isinstance(frame.payload, RegisterMessage):
                daemon.send(frame.src_host, frame.src_port,
                            AckMessage(frame.payload.msg_id, info="app-1"))

    sim.spawn(ack_registrations())
    app = SyntheticApp(net.hosts["apphost"], "cycler", "srv",
                       config=AppConfig(steps_per_phase=steps_per_phase,
                                        step_time=0.01,
                                        interaction_window=0.02))
    marks = []
    noting_sends(app, lambda _now: marks.append(sim.events_dispatched))
    app.start()
    while len(marks) < 4:
        sim.step()
    return marks[3] - marks[2]


#: the compute phase's one timer, three frames (phase, update, phase) at two
#: events each (the arrival and the daemon's get), and the interaction
#: window's expiry with the ``AnyOf`` it wakes
CYCLE_EVENTS = 9


@pytest.mark.parametrize("steps_per_phase", [1, 2, 10])
def test_a_cycle_costs_the_same_events_for_any_number_of_steps(
        steps_per_phase):
    assert cycle_events(steps_per_phase) == CYCLE_EVENTS
