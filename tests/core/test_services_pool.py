"""Tests for the pool-of-services model and the CORBA CoG kit (§3/§7)."""

import pytest

from repro import AppConfig, build_collaboratory
from repro.apps import SyntheticApp
from repro.core.services import (
    CorbaCoGKit,
    MonitoringService,
    ServicePool,
    deploy_pool_services,
    pool_for_server,
)
from repro.orb import ObjectNotFound


@pytest.fixture
def grid():
    collab = build_collaboratory(2, apps_hosts_per_domain=2,
                                 client_hosts_per_domain=1)
    collab.run_bootstrap()
    services = deploy_pool_services(collab, staging_time=0.5,
                                    heartbeat_period=2.0)
    services["cog"].register_application_type("synthetic", SyntheticApp)
    return collab, services


def run(collab, gen):
    return collab.sim.run(until=collab.sim.spawn(gen))


def test_pool_discovery_via_trader(grid):
    collab, services = grid
    pool = pool_for_server(collab.server_of(0))

    def probe():
        mon = yield from pool.discover(MonitoringService.SERVICE_ID)
        cog = yield from pool.discover(CorbaCoGKit.SERVICE_ID)
        nothing = yield from pool.discover("NONEXISTENT")
        return (len(mon), len(cog), len(nothing))

    assert run(collab, probe()) == (1, 1, 0)


def test_pool_bind_first_skips_dead_offers(grid):
    collab, services = grid
    pool = pool_for_server(collab.server_of(0))

    def probe():
        ref = yield from pool.bind_first(CorbaCoGKit.SERVICE_ID)
        return ref.object_key

    assert run(collab, probe()) == "CorbaCoGKit"


def test_pool_bind_first_missing_service(grid):
    collab, services = grid
    pool = pool_for_server(collab.server_of(0))

    def probe():
        try:
            yield from pool.bind_first("GHOST_SERVICE")
        except ObjectNotFound:
            return "missing"

    assert run(collab, probe()) == "missing"


def test_monitoring_receives_heartbeats(grid):
    collab, services = grid
    collab.sim.run(until=collab.sim.now + 7.0)
    monitoring = services["monitoring"]
    status = monitoring.network_status()
    assert sorted(status) == sorted(collab.servers)
    for server_name, entry in status.items():
        assert "logins" in entry["stats"]
        assert entry["at"] > 0


def test_cog_submit_and_steer_end_to_end(grid):
    """§7's composition: allocate+stage via the CoG kit, steer via the
    DISCOVER portal."""
    collab, services = grid
    cog_ref = services["cog_ref"]
    s0 = collab.server_of(0)
    portal = collab.add_portal(0)

    def scenario():
        job = yield from s0.orb.invoke(
            cog_ref, "submit_job", "synthetic", "cog-launched", 0,
            {"alice": "write"},
            {"steps_per_phase": 2, "step_time": 0.01,
             "interaction_window": 0.05})
        # wait for the app to register with its DISCOVER server
        app_id = None
        for _ in range(20):
            yield collab.sim.timeout(0.5)
            status = yield from s0.orb.invoke(cog_ref, "job_status",
                                              job["job_id"])
            if status["app_id"] is not None:
                app_id = status["app_id"]
                break
        assert app_id is not None
        # now steer it through the ordinary portal path
        yield from portal.login("alice")
        session = yield from portal.open(app_id)
        yield from session.acquire_lock()
        value = yield from session.set_param("gain", 9.0)
        return (job["state"], value)

    state, value = run(collab, scenario())
    assert state == "running"
    assert value == 9.0


def test_cog_unknown_app_type(grid):
    collab, services = grid
    s0 = collab.server_of(0)

    def scenario():
        try:
            yield from s0.orb.invoke(services["cog_ref"], "submit_job",
                                     "fortran-iv", "x", 0, {})
        except ObjectNotFound:
            return "rejected"

    assert run(collab, scenario()) == "rejected"


def test_cog_staging_takes_time(grid):
    collab, services = grid
    s0 = collab.server_of(0)

    def scenario():
        t0 = collab.sim.now
        yield from s0.orb.invoke(
            services["cog_ref"], "submit_job", "synthetic", "slow-stage", 0,
            {"u": "write"})
        return collab.sim.now - t0

    assert run(collab, scenario()) >= 0.5  # the staging delay


def test_cog_allocates_least_loaded_host(grid):
    collab, services = grid
    cog = services["cog"]
    s0 = collab.server_of(0)

    def scenario():
        hosts = []
        for i in range(3):
            job = yield from s0.orb.invoke(
                services["cog_ref"], "submit_job", "synthetic",
                f"spread-{i}", 0, {"u": "write"})
            hosts.append(job["host"])
        return hosts

    hosts = run(collab, scenario())
    # two app hosts in domain 0: the first two jobs land on distinct hosts
    assert hosts[0] != hosts[1]
    assert hosts[2] in (hosts[0], hosts[1])


def test_cog_cancel_job(grid):
    collab, services = grid
    s0 = collab.server_of(0)

    def scenario():
        job = yield from s0.orb.invoke(
            services["cog_ref"], "submit_job", "synthetic", "doomed", 0,
            {"u": "write"},
            {"steps_per_phase": 2, "step_time": 0.01,
             "interaction_window": 0.05})
        yield collab.sim.timeout(3.0)
        cancelled = yield from s0.orb.invoke(services["cog_ref"],
                                             "cancel_job", job["job_id"])
        yield collab.sim.timeout(2.0)
        later = yield from s0.orb.invoke(services["cog_ref"],
                                         "job_status", job["job_id"])
        return (cancelled["state"], later["state"])

    state, later = run(collab, scenario())
    assert state == later == "cancelled"
    # the application really stopped
    doomed = [a for a in collab.apps if a.name == "doomed"][0]
    assert doomed.state == "stopped"
