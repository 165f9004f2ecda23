"""Tests for topology builders, traffic tracing, and the cost model."""

import pytest

from repro.net import CostModel, build_lan, build_multi_domain
from repro.net.costs import LinkSpec
from repro.net.network import Network
from repro.sim import Simulator

from tests.conftest import route


def test_build_lan_names_and_links():
    sim = Simulator()
    net = Network(sim)
    dom = build_lan(sim, net, "rutgers", n_app_hosts=2, n_client_hosts=3)
    assert dom.server.name == "rutgers-server"
    assert [h.name for h in dom.app_hosts] == ["rutgers-app0", "rutgers-app1"]
    assert len(dom.client_hosts) == 3
    # every host one LAN hop from the server
    for h in dom.app_hosts + dom.client_hosts:
        assert len(route(net, h.name, dom.server.name)) == 2


def test_build_multi_domain_wan_mesh():
    sim = Simulator()
    net, domains = build_multi_domain(sim, n_domains=3, apps_per_domain=1,
                                      clients_per_domain=1)
    assert len(domains) == 3
    # servers pairwise linked by WAN
    wan_links = [l for l in net.links.values() if l.kind == "wan"]
    assert len(wan_links) == 3
    # cross-domain route goes through the two servers
    path = route(net, "d0-client0", "d1-client0")
    assert "d0-server" in path and "d1-server" in path


def test_multi_domain_custom_names():
    sim = Simulator()
    net, domains = build_multi_domain(
        sim, 2, 1, 1, names=["rutgers", "utaustin"])
    assert domains[0].server.name == "rutgers-server"
    assert domains[1].server.name == "utaustin-server"


def test_multi_domain_validates_args():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_multi_domain(sim, 0, 1, 1)
    with pytest.raises(ValueError):
        build_multi_domain(sim, 2, 1, 1, names=["only-one"])


def test_trace_counts_wan_vs_lan():
    sim = Simulator()
    net, domains = build_multi_domain(sim, 2, 1, 1)
    src = domains[0].client_hosts[0].bind(1)
    local = domains[0].server.bind(80)
    remote = domains[1].server.bind(80)

    def drain(sim, ep, n):
        for _ in range(n):
            yield ep.recv()

    sim.spawn(drain(sim, local, 1))
    sim.spawn(drain(sim, remote, 1))
    src.send(domains[0].server.name, 80, "local-req")
    src.send(domains[1].server.name, 80, "remote-req")
    sim.run()
    t = net.trace
    # local: 1 LAN hop; remote: 1 LAN hop + 1 WAN hop
    assert t.wan_messages == 1
    assert t.lan_messages == 2
    assert t.wan_bytes > 0
    snap = t.snapshot()
    assert snap["total_messages"] == 3


def test_trace_reset():
    sim = Simulator()
    net = Network(sim)
    trace = net.trace
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", 0.001)
    src = net.hosts["a"].bind(1)
    net.hosts["b"].bind(2)
    src.send("b", 2, "x")
    sim.run()
    assert trace.total.messages == 1
    trace.reset()
    assert trace.total.messages == 0
    assert trace.wan_messages == 0


def test_cost_model_protocol_asymmetry():
    cm = CostModel()
    size = 512
    # The paper's trade-off: servlet/HTTP handling costs more than the
    # custom TCP channel; CORBA sits in between with marshalling overhead.
    assert cm.http_cost(size) > cm.corba_cost(size) > cm.tcp_cost(size)


def test_cost_model_scales_with_size():
    cm = CostModel()
    assert cm.tcp_cost(10_000) > cm.tcp_cost(10)
    assert cm.http_cost(10_000) > cm.http_cost(10)
    assert cm.corba_cost(10_000) > cm.corba_cost(10)


def test_cost_model_session_surcharge():
    cm = CostModel()
    assert cm.http_cost(100, new_session=True) == pytest.approx(
        cm.http_cost(100) + cm.http_session_setup_cost)


def test_linkspec_defaults_are_sane():
    spec = LinkSpec()
    assert spec.wan_latency > spec.lan_latency
    assert spec.lan_bandwidth > 0
