"""The routes are the oracle's.

``Network`` resolves routes with a private Dijkstra; networkx (a
test-only dependency since PR 22, which took it out of ``src/``) is the
reference it has to agree with, link for link — on random graphs, on
every topology the repository builds, and, where equal-cost routes
exist, in cost, with the choice being the documented one.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_collaboratory
from repro.bench.fleet import build_fleet
from repro.net import Network, NetworkError, build_multi_domain
from repro.sim import Simulator

from tests.conftest import path_latency, route

networkx = pytest.importorskip("networkx")


def network_of(edges):
    """A network of the hosts named in ``edges`` — ``(a, b, latency)``
    triples, linked in that order."""
    net = Network(Simulator())
    for name in sorted({end for a, b, _latency in edges for end in (a, b)}):
        net.add_host(name)
    for a, b, latency in edges:
        net.add_link(a, b, latency)
    return net


def oracle_of(net):
    graph = networkx.Graph()
    graph.add_nodes_from(net.hosts)
    for link in net.links.values():
        graph.add_edge(link.a, link.b, link=link,
                       weight=max(link.latency, 1e-9))
    return graph


def oracle_links(graph, src, dst):
    path = networkx.shortest_path(graph, src, dst, weight="weight")
    return tuple(graph.edges[a, b]["link"] for a, b in zip(path, path[1:]))


def assert_every_route_is_the_oracles(net):
    graph = oracle_of(net)
    for src, dst in itertools.product(net.hosts, repeat=2):
        assert net._links(src, dst) == oracle_links(graph, src, dst), (
            src, dst)


# -- (a) random connected graphs ----------------------------------------------

@st.composite
def connected_edges(draw):
    """2–25 hosts: a random spanning tree plus random chords, linked in a
    random order.  The latencies are distinct powers of two (fewer than
    53 of them), so every sum of a set of links is exact and no two
    different sets sum alike: each pair has one shortest route.  The
    smallest is 2**-29 s, above the 1 ns floor a link weighs at least:
    two links under the floor would weigh alike and could tie."""
    n = draw(st.integers(2, 25))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs |= draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda pair: pair[0] < pair[1]), max_size=25))
    pairs = draw(st.permutations(sorted(pairs)))
    exponents = draw(st.permutations(range(len(pairs))))
    return [(f"h{a}", f"h{b}", 2.0 ** (19 - k))
            for (a, b), k in zip(pairs, exponents)]


@settings(max_examples=60, deadline=None)
@given(connected_edges())
def test_random_graph_routes_equal_the_oracles(edges):
    assert_every_route_is_the_oracles(network_of(edges))


def test_zero_latency_links_weigh_a_nanosecond():
    """Two free hops cost 2 ns, so a 1.5 ns direct link is the route —
    summed as zeros, the detour would have won."""
    net = network_of([("a", "b", 0.0), ("b", "c", 0.0), ("a", "c", 1.5e-9),
                      ("c", "d", 0.0)])
    assert route(net, "a", "c") == ["a", "c"]
    assert route(net, "a", "d") == ["a", "c", "d"]
    assert route(net, "b", "d") == ["b", "c", "d"]
    assert_every_route_is_the_oracles(net)


# -- (b) equal-cost alternatives ---------------------------------------------

def diamond(first, second):
    return network_of([("a", first, 1.0), ("a", second, 1.0),
                       (first, "d", 1.0), (second, "d", 1.0)])


@pytest.mark.parametrize("first, second", [("b", "c"), ("c", "b")])
def test_equal_cost_routes_go_by_link_insertion_order(first, second):
    net = diamond(first, second)
    assert route(net, "a", "d") == ["a", first, "d"]
    assert route(net, "d", "a") == ["d", first, "a"]
    # the cost is the oracle's, whichever of the two it would have named
    assert path_latency(net, "a", "d") == networkx.shortest_path_length(
        oracle_of(net), "a", "d", weight="weight") == 2.0
    # the same again on a second build, and on a second resolution
    assert route(diamond(first, second), "a", "d") == route(net, "a", "d")
    chosen = net._links("a", "d")
    net._routes.clear()
    assert net._links("a", "d") == chosen


def test_equal_cost_route_found_first_stays():
    """Relaxation is strict: the direct link is reached when ``a`` is
    expanded, and the detour of the same cost, met later, does not
    replace it — whichever was linked first."""
    for edges in ([("a", "b", 1.0), ("b", "d", 1.0), ("a", "d", 2.0)],
                  [("a", "d", 2.0), ("a", "b", 1.0), ("b", "d", 1.0)]):
        assert route(network_of(edges), "a", "d") == ["a", "d"]


# -- (c) the topologies the repository builds --------------------------------

def test_multi_domain_routes_equal_the_oracles():
    net, _domains = build_multi_domain(Simulator(), 3, 2, 2)
    assert_every_route_is_the_oracles(net)


def test_star_routes_equal_the_oracles():
    net = network_of([("hub", f"leaf{i}", 0.0005) for i in range(5)])
    assert_every_route_is_the_oracles(net)


def test_collaboratory_routes_equal_the_oracles():
    collab = build_collaboratory(3, apps_hosts_per_domain=2,
                                 client_hosts_per_domain=2,
                                 use_directory=True)
    assert_every_route_is_the_oracles(collab.net)
    collab.stop()


def test_fleet_routes_equal_the_oracles():
    fleet = build_fleet(6, directory_shards=2, directory_replicas=2)
    assert_every_route_is_the_oracles(fleet.net)
    fleet.stop()


# -- (d) re-routing and the errors -------------------------------------------

def test_add_link_reroutes_a_resolved_pair():
    net = network_of([("a", "b", 0.010), ("b", "c", 0.010)])
    assert route(net, "a", "c") == ["a", "b", "c"]
    shortcut = net.add_link("a", "c", 0.005)
    assert net._links("a", "c") == (shortcut,)
    assert path_latency(net, "a", "c") == 0.005


def test_unroutable_pairs_raise():
    net = network_of([("a", "b", 0.001), ("c", "d", 0.001)])
    with pytest.raises(NetworkError, match="no route ghost -> a"):
        route(net, "ghost", "a")
    with pytest.raises(NetworkError, match="no route a -> ghost"):
        route(net, "a", "ghost")
    with pytest.raises(NetworkError, match="no route a -> c"):
        route(net, "a", "c")
    assert route(net, "a", "a") == ["a"]
