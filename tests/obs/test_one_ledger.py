"""One cost ledger per deployment.

Both composition roots build a single :class:`RequestCostLedger` and hand
it to everything that charges: every server (its three plane pipelines and
its journal's storage metrics), the network's traffic trace and the tracer
(``build_collaboratory``), or every shard pipeline (``build_fleet``).  That
is why no surface merges ledgers: if a builder ever made a second one,
``pipeline_counters`` and ``/status/costs`` would count only what they
can reach.
"""

from repro.bench.fleet import build_fleet
from repro.bench.scenarios import build_collaboratory
from repro.obs import RecordingInterceptor


def recording_ledgers(pipeline):
    return [interceptor.ledger for interceptor in pipeline.interceptors
            if isinstance(interceptor, RecordingInterceptor)]


def server_ledgers(server):
    """Every ledger reference one server holds."""
    found = [server.ledger, server.storage_metrics.ledger]
    for pipeline in (server.container.pipeline, server.daemon.pipeline,
                     server.orb.pipeline):
        (ledger,) = recording_ledgers(pipeline)
        found.append(ledger)
    return found


def test_build_collaboratory_shares_one_ledger():
    collab = build_collaboratory(2)
    collab.run_bootstrap()
    ledger = collab.ledger
    assert ledger is not None
    held = [collab.net.trace.ledger, collab.tracer.ledger]
    for server in collab.servers.values():
        held += server_ledgers(server)
    assert len(held) == 2 + 5 * len(collab.servers)
    assert all(each is ledger for each in held)

    victim = collab.server_of(0)
    victim.stop()
    replacement, _report = collab.restart_server(victim.name)
    assert replacement is not victim
    assert all(each is ledger for each in server_ledgers(replacement))
    collab.stop()


def test_build_fleet_shares_one_ledger():
    fleet = build_fleet(2, directory_shards=1)
    ledger = fleet.ledger
    held = [fleet.net.trace.ledger]
    for server in fleet.servers:
        held += server_ledgers(server)
    (shard_orb,) = fleet.plane.orbs.values()
    held += recording_ledgers(shard_orb.pipeline)
    assert len(held) == 1 + 5 * len(fleet.servers) + 1
    assert all(each is ledger for each in held)
    fleet.stop()
