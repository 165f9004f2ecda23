"""Property tests for the consistent-hash ring (hypothesis).

The three properties the directory plane leans on: keys spread evenly
(max shard load within 2x of ideal over 1000 keys), membership changes
move only the keys they must (join: every moved key lands on the new
node; leave: only the removed node's keys move), and replica sets are
R distinct nodes led by the primary.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.directory.ring import HashRing

node_counts = st.integers(min_value=2, max_value=8)


def ring_of(nodes):
    ring = HashRing()
    for node in nodes:
        ring.add_node(node)
    return ring


def keys(n=1000):
    return [f"user-{i}" for i in range(n)]


@settings(max_examples=25, deadline=None)
@given(n_nodes=node_counts)
def test_balance_within_2x_of_ideal(n_nodes):
    ring = ring_of([f"shard{i}" for i in range(n_nodes)])
    spread = Counter(map(ring.shard_of, keys()))
    ideal = 1000 / n_nodes
    assert sum(spread.values()) == 1000
    assert max(spread.values()) <= 2 * ideal


@settings(max_examples=25, deadline=None)
@given(n_nodes=node_counts)
def test_join_moves_keys_only_to_the_new_node(n_nodes):
    ring = ring_of([f"shard{i}" for i in range(n_nodes)])
    before = {k: ring.shard_of(k) for k in keys()}
    ring.add_node("joiner")
    moved = {k for k, owner in before.items() if ring.shard_of(k) != owner}
    assert all(ring.shard_of(k) == "joiner" for k in moved)
    # and the newcomer takes roughly its fair share, no more than double
    assert len(moved) <= 2 * 1000 / (n_nodes + 1)


@settings(max_examples=25, deadline=None)
@given(n_nodes=node_counts)
def test_leave_moves_only_the_departed_nodes_keys(n_nodes):
    ring = ring_of([f"shard{i}" for i in range(n_nodes + 1)])
    before = {k: ring.shard_of(k) for k in keys()}
    # the ring after shard0 leaves is the ring it never joined
    ring = ring_of([f"shard{i}" for i in range(1, n_nodes + 1)])
    for k, owner in before.items():
        if owner != "shard0":
            assert ring.shard_of(k) == owner
        else:
            assert ring.shard_of(k) != "shard0"


@settings(max_examples=25, deadline=None)
@given(n_nodes=node_counts, r=st.integers(min_value=1, max_value=5),
       key=st.text(min_size=1, max_size=20))
def test_replica_sets_are_r_distinct_nodes_led_by_primary(n_nodes, r, key):
    ring = ring_of([f"shard{i}" for i in range(n_nodes)])
    replicas = ring.replicas_of(key, r)
    assert len(replicas) == min(r, n_nodes)
    assert len(set(replicas)) == len(replicas)
    assert replicas[0] == ring.shard_of(key)


def test_placement_is_deterministic_across_instances():
    a = ring_of(["s1", "s2", "s3"])
    b = ring_of(["s3", "s1", "s2"])  # insertion order must not matter
    for k in keys(200):
        assert a.shard_of(k) == b.shard_of(k)
        assert a.replicas_of(k, 2) == b.replicas_of(k, 2)


def test_epoch_bumps_on_every_membership_change():
    ring = HashRing()
    assert ring.epoch == 0
    ring.add_node("s1")
    ring.add_node("s2")
    assert ring.epoch == 2
    with pytest.raises(ValueError):
        ring.add_node("s2")
    assert ring.epoch == 2  # a failed change does not bump


def test_empty_ring_raises():
    ring = HashRing()
    with pytest.raises(LookupError):
        ring.shard_of("anyone")
    with pytest.raises(LookupError):
        ring.replicas_of("anyone", 2)
