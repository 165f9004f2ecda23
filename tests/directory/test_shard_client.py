"""Shard servant + DirectoryClient: replication, failover, epochs, cache."""

import pytest

from repro.directory import DirectoryClient, DirectoryPlane
from repro.directory.ring import HashRing
from repro.metrics import DirectoryMetrics
from repro.net import Network
from repro.orb import CommFailure, Orb
from repro.sim import Simulator
from tests.conftest import drive


def make_plane(n_shards=3, replicas=2):
    sim = Simulator()
    net = Network(sim)
    net.add_host("client-host")
    plane = DirectoryPlane(replicas=replicas)
    orbs = {}
    for i in range(n_shards):
        host = net.add_host(f"d{i}")
        net.add_link("client-host", host.name, 0.001)
        orbs[host.name] = Orb(host)
        plane.add_shard(host.name, orbs[host.name])
    client_orb = Orb(net.hosts["client-host"])
    return sim, net, plane, client_orb, orbs


def publish(sim, client, app_id="s1#a1", server="s1",
            acl={"alice": "write", "bob": "read"}):
    drive(sim, client.publish_app(app_id, server, "wave", dict(acl)))


def test_write_through_then_lookup_via_another_client():
    sim, net, plane, orb, _ = make_plane()
    writer = plane.make_client(orb, metrics=DirectoryMetrics())
    reader = plane.make_client(orb, metrics=DirectoryMetrics())
    publish(sim, writer)
    assert drive(sim, reader.authenticate("alice")) is True
    assert drive(sim, reader.authenticate("eve")) is False
    apps = drive(sim, reader.lookup("alice"))
    assert [a["app_id"] for a in apps] == ["s1#a1"]
    assert drive(sim, reader.locate_app("s1#a1")) == "s1"
    assert plane.app_count() == 1


def test_withdraw_app_cleans_user_entries():
    sim, net, plane, orb, _ = make_plane()
    client = plane.make_client(orb, metrics=DirectoryMetrics())
    publish(sim, client)
    drive(sim, client.withdraw_app("s1#a1"))
    assert drive(sim, client.lookup("alice")) == []
    assert plane.app_count() == 0


def test_withdraw_server_drops_everything_it_published():
    sim, net, plane, orb, _ = make_plane()
    client = plane.make_client(orb, metrics=DirectoryMetrics())
    publish(sim, client, app_id="s1#a1")
    publish(sim, client, app_id="s1#a2", acl={"carol": "read"})
    publish(sim, client, app_id="s2#a1", server="s2")
    assert drive(sim, client.withdraw_server("s1")) == 2
    assert plane.app_count() == 1
    assert drive(sim, client.lookup("carol")) == []
    # alice keeps her s2 entry
    assert [a["app_id"] for a in drive(sim, client.lookup("alice"))] \
        == ["s2#a1"]


def test_read_fails_over_when_primary_replica_dies():
    sim, net, plane, orb, _ = make_plane()
    metrics = DirectoryMetrics()
    client = plane.make_client(orb, metrics=metrics, call_timeout=2.0)
    publish(sim, client)
    primary = plane.ring.replicas_of("alice", 2)[0]
    plane.kill_shard(primary)
    assert drive(sim, client.authenticate("alice")) is True
    assert metrics.get("read_failovers") >= 1
    assert primary not in plane.live_shards


def test_write_skips_dead_replica_but_succeeds():
    sim, net, plane, orb, _ = make_plane()
    metrics = DirectoryMetrics()
    client = plane.make_client(orb, metrics=metrics, call_timeout=2.0)
    victim = plane.ring.replicas_of("s1#a1", 2)[0]
    plane.kill_shard(victim)
    publish(sim, client)
    assert metrics.get("write_skips") >= 1
    # the surviving replica still answers reads
    assert drive(sim, client.locate_app("s1#a1")) == "s1"


def test_all_replicas_dead_raises_commfailure():
    sim, net, plane, orb, _ = make_plane()
    client = plane.make_client(orb, metrics=DirectoryMetrics(),
                               call_timeout=2.0)
    publish(sim, client)
    for shard in plane.ring.replicas_of("alice", 2):
        plane.kill_shard(shard)
    with pytest.raises(CommFailure):
        drive(sim, client.authenticate("alice"))


def test_stale_epoch_rejected_then_retried_after_refresh():
    sim, net, plane, orb, orbs = make_plane(n_shards=3)
    writer = plane.make_client(orb, metrics=DirectoryMetrics())
    publish(sim, writer)
    # a client still routing on a pre-join ring: same nodes, older epoch
    stale_ring = HashRing()
    for node in sorted(plane.ring.nodes):
        stale_ring.add_node(node)
    host = net.add_host("d9")
    net.add_link("client-host", "d9", 0.001)
    plane.add_shard("d9", Orb(host))  # servants move to the new epoch
    assert stale_ring.epoch < plane.ring.epoch
    metrics = DirectoryMetrics()
    client = DirectoryClient(orb, stale_ring, plane.refs, replicas=2,
                             metrics=metrics, refresh=lambda: plane.ring)
    assert drive(sim, client.authenticate("alice")) is True
    assert metrics.get("stale_epoch_retries") == 1
    assert client.ring is plane.ring  # refresh adopted the live ring


def test_stub_cache_counts_hits_and_misses():
    sim, net, plane, orb, _ = make_plane(n_shards=2, replicas=1)
    metrics = DirectoryMetrics()
    client = DirectoryClient(orb, plane.ring, plane.refs,
                             metrics=metrics)
    shard = plane.ring.nodes[0]
    client._stub(shard)  # cold: builds the stub
    client._stub(shard)
    client._stub(shard)
    assert metrics.get("stub_cache_misses") == 1
    assert metrics.get("stub_cache_hits") == 2
    # a ref change (shard replacement) makes the cached stub stale — the
    # rebuild is a miss, not a hit
    client.refs[shard] = plane.refs[plane.ring.nodes[1]]
    client._stub(shard)
    assert metrics.get("stub_cache_misses") == 2
    assert metrics.get("stub_cache_hits") == 2


def test_epoch_change_invalidates_cached_stubs():
    sim, net, plane, orb, _ = make_plane()
    metrics = DirectoryMetrics()
    client = plane.make_client(orb, metrics=metrics)
    publish(sim, client)
    assert client._stubs
    host = net.add_host("d9")
    net.add_link("client-host", "d9", 0.001)
    plane.add_shard("d9", Orb(host))
    assert drive(sim, client.authenticate("alice")) is True
    assert metrics.get("epoch_invalidations") >= 1


def test_plane_snapshot_shape():
    sim, net, plane, orb, _ = make_plane()
    client = plane.make_client(orb, metrics=DirectoryMetrics())
    publish(sim, client)
    snap = plane.snapshot()
    assert snap["shards"] == 3 and snap["replicas"] == 2
    assert snap["apps"] == 1 and snap["killed"] == []
    assert set(snap["per_shard"]) == set(plane.ring.nodes)
