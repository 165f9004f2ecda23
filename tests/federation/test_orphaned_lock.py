"""A lock outlives its dead relay (ROADMAP item 2), reproduced.

A domain-1 client takes the steering lock of an application homed in
domain 0 through its own server, ``d1-server``; a domain-0 client queues
behind it.  When ``d1-server`` dies nothing tells the host: the holder
stays ``d1-server:…`` and the waiter is never granted.  Item 2 (a lease,
or a release on the relay's death) makes this test pass.
"""

import pytest

from repro.bench.faults import Kill, inject

from tests.federation.conftest import run

#: simulated seconds after the kill by which the waiter must drive
GRANT_BOUND = 30.0


@pytest.mark.xfail(strict=True,
                   reason="ROADMAP item 2: a lock outlives its dead relay")
def test_a_dead_relays_lock_passes_to_the_waiter(pair):
    collab, app = pair  # two domains, 30 ms WAN, the app homed in domain 0
    host = collab.server_of(0)
    host.security.acl_for(app.app_id).grant("bob", "write")
    alice, bob = collab.add_portal(1), collab.add_portal(0)

    def both_ask():
        yield from alice.login("alice")
        a_sess = yield from alice.open(app.app_id)
        assert (yield from a_sess.acquire_lock()) == "granted"
        yield from bob.login("bob")
        b_sess = yield from bob.open(app.app_id)
        assert (yield from b_sess.acquire_lock()) == "queued"

    run(collab, both_ask())
    assert host.locks.holder_of(app.app_id).startswith("d1-server:")

    injector, _landed = inject(collab, [Kill("d1-server", 0.0)])
    collab.sim.run(until=injector)
    collab.sim.run(until=collab.sim.now + GRANT_BOUND)
    assert host.locks.holder_of(app.app_id) == bob.client_id
    collab.stop()
