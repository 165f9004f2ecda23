"""The fault injector: records land where their ``at`` says, in order, and
each leaves the deployment the way the drills rely on."""

import pytest

from repro.bench.faults import Kill, LoseShard, Restart, inject
from repro.bench.fleet import build_fleet
from repro.core.deployment import build_collaboratory
from repro.core.server import DiscoverServer
from repro.storage import RecoveryReport


@pytest.fixture
def collab():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    yield collab
    collab.stop()


@pytest.fixture
def stops(monkeypatch):
    """``(instant, server)`` of every ``DiscoverServer.stop()``."""
    seen, stop = [], DiscoverServer.stop

    def recording(server):
        seen.append((server.sim.now, server.name))
        stop(server)

    monkeypatch.setattr(DiscoverServer, "stop", recording)
    return seen


def test_each_fault_lands_at_start_plus_at_bit_for_bit(collab, stops):
    sim = collab.sim
    start = sim.now  # after a bootstrap: no round number
    a, b = sorted(collab.servers)
    faults = (Kill(b, 0.7), Kill(a, 0.1))  # given out of time order
    injector, landed = inject(collab, faults)
    sim.run(until=injector)
    assert list(landed) == [faults[1], faults[0]]
    for fault in faults:
        assert landed[fault] == (start + fault.at, None)
    assert stops == [(start + 0.1, a), (start + 0.7, b)]


def test_same_instant_faults_land_in_the_order_given(collab, stops):
    a, b = sorted(collab.servers)
    for order in ((a, b), (b, a)):
        stops.clear()
        faults = tuple(Kill(name, 0.5) for name in order)
        injector, landed = inject(collab, faults)
        collab.sim.run(until=injector)
        assert list(landed) == list(faults)
        assert [name for _t, name in stops] == list(order)


def test_a_restart_lands_with_its_report_once_rejoined(collab):
    sim = collab.sim
    start = sim.now
    victim = collab.server_of(1)
    (other,) = set(collab.servers) - {victim.name}
    restart = Restart(victim.name, 1.0)
    injector, landed = inject(collab, (Kill(victim.name, 0.25), restart))
    sim.run(until=start + 1.0 + 1e-9)  # landed, still bootstrapping
    replacement = collab.servers[victim.name]
    assert replacement is not victim
    assert restart not in landed and not replacement.registry.peers
    sim.run(until=injector)
    instant, report = landed[restart]
    assert instant == start + 1.0 < sim.now
    assert isinstance(report, RecoveryReport)
    assert collab.servers[victim.name] is replacement
    assert set(replacement.registry.peers) == {other}


def test_a_lost_shard_stays_on_the_ring_and_leaves_the_live_set():
    fleet = build_fleet(2, directory_shards=3, directory_replicas=2)
    plane = fleet.plane
    lost = LoseShard(plane.ring.nodes[0], 2.0)
    injector, landed = inject(fleet, (lost,))
    fleet.sim.run(until=injector)
    assert landed[lost] == (2.0, None)
    assert lost.shard in plane.ring.nodes
    assert lost.shard not in plane.live_shards
    assert len(plane.live_shards) == len(plane.ring.nodes) - 1
    fleet.stop()
