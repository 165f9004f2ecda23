"""Tests for the scenario builders."""

import pytest

from repro import AppConfig, build_collaboratory, build_single_server
from repro.apps import SyntheticApp
from repro.core.server import SERVICE_ID


def test_single_server_shape():
    collab = build_single_server(app_hosts=2, client_hosts=3)
    assert len(collab.servers) == 1
    assert len(collab.domains) == 1
    assert len(collab.domains[0].app_hosts) == 2
    assert len(collab.domains[0].client_hosts) == 3
    assert "registry" in collab.net.hosts


def test_bootstrap_publishes_and_discovers():
    collab = build_collaboratory(3, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    assert len(collab.trader.query_now(SERVICE_ID)) == 3
    for server in collab.servers.values():
        assert len(server.peers) == 2
        assert server.name not in server.peers


def test_custom_domain_names():
    collab = build_collaboratory(2, names=["rutgers", "caltech"],
                                 apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    assert set(collab.servers) == {"rutgers-server", "caltech-server"}


def test_add_app_round_robin_hosts():
    collab = build_single_server(app_hosts=2)
    collab.run_bootstrap()
    cfg = AppConfig(steps_per_phase=1, step_time=0.01)
    a1 = collab.add_app(0, SyntheticApp, "a1", acl={"u": "write"},
                        config=cfg)
    a2 = collab.add_app(0, SyntheticApp, "a2", acl={"u": "write"},
                        config=cfg)
    a3 = collab.add_app(0, SyntheticApp, "a3", acl={"u": "write"},
                        config=cfg)
    assert a1.host.name != a2.host.name
    assert a1.host.name == a3.host.name  # wrapped around


def test_add_app_without_start():
    collab = build_single_server()
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "lazy", acl={"u": "write"},
                         start=False)
    collab.sim.run(until=2.0)
    assert not app.registered
    app.start()
    collab.sim.run(until=4.0)
    assert app.registered


def test_apps_bound_in_network_naming():
    collab = build_single_server()
    collab.run_bootstrap()
    app = collab.add_app(0, SyntheticApp, "named", acl={"u": "write"},
                         config=AppConfig(steps_per_phase=1, step_time=0.01))
    collab.sim.run(until=2.0)
    # §5.1.2: CorbaProxy binds itself to the naming service under the app id
    assert app.app_id in collab.naming
    ref = collab.naming.resolve(app.app_id)
    assert ref.object_key == f"CorbaProxy/{app.app_id}"


def test_server_of_and_portal_targets():
    collab = build_collaboratory(2, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1)
    portal = collab.add_portal(1)
    assert portal.server_host == collab.domains[1].server.name
    assert collab.server_of(1).name == collab.domains[1].server.name


def test_stop_shuts_everything_down():
    collab = build_single_server()
    collab.run_bootstrap()
    collab.stop()
    collab.sim.run()
    server_host = collab.domains[0].server
    assert 80 not in server_host.ports
    assert 683 not in server_host.ports
