"""Location transparency (§5.2): one steering script, run by a client at
the application's home server and by one whose server relays every call
across a 30 ms WAN, gets the same answers.

The script is fixed: login, open, acquire the lock, set and read back a
parameter, release the lock, then read the archive twice (the latecomer
catch-up and the client's own interaction replay).  Answers are compared
after mapping the client's id to one placeholder and dropping what is
*meant* to differ with the route — times, request ids and archive
record ids.
"""

from repro import build_collaboratory
from repro.apps import SyntheticApp
from repro.net.costs import LinkSpec

from tests.federation.conftest import cfg, run

#: the record fields a route may change: when, and the ids drawn on the way
ROUTE_FIELDS = {"at", "request_id", "record_id"}


def steer_from(portal_domain):
    """Run the script from a portal in ``portal_domain`` against an app
    homed in domain 0; returns ``(client_id, answers)``."""
    collab = build_collaboratory(2, spec=LinkSpec(wan_latency=0.030))
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "wave", acl={"alice": "write"},
                         config=cfg())
    collab.sim.run(until=3.0)
    portal = collab.add_portal(portal_domain)

    def script():
        yield from portal.login("alice")
        session = yield from portal.open(app.app_id)
        answers = {"acquire": (yield from session.acquire_lock())}
        answers["set"] = yield from session.set_param("gain", 2.0)
        answers["get"] = yield from session.get_param("gain")
        answers["release"] = yield from session.release_lock()
        answers["catchup"] = yield from session.catchup()
        answers["replay"] = yield from session.replay_interactions()
        return answers

    answers = run(collab, script())
    collab.stop()
    return portal.client_id, answers


def comparable(client_id, answers):
    """``answers`` with the client's id mapped and route fields dropped;
    each archive read reduced to its records' ``(kind, command)``."""
    def scrub(value):
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in value.items()
                    if k not in ROUTE_FIELDS}
        if isinstance(value, list):
            return [scrub(v) for v in value]
        return "<client>" if value == client_id else value

    out = scrub(answers)
    for read in ("catchup", "replay"):
        out[read + "_sequence"] = [(r["kind"], r["command"])
                                   for r in out[read]]
    return out


def test_a_relayed_client_gets_the_local_clients_answers():
    local = comparable(*steer_from(0))
    relayed = comparable(*steer_from(1))
    assert local["acquire"] == "granted"
    assert local["get"] == 2.0
    assert local["replay_sequence"] == [("command", "set_param"),
                                        ("command", "get_param")]
    assert relayed == local
