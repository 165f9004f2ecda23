"""The server's constructor is the paper's server plus four sockets, the
builders keep their public spelling, and the planes are additive: with no
plane at all the paper's tables come out to the bit.

The replay patches the composition under ``tests/`` — there is no option
in ``src/`` that builds a plane-less deployment — in one subprocess, in
the golden capture's order (process-global ids reach the wire).
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.fleet import build_fleet
from repro.bench.scenarios import pipeline_counters
from repro.core.deployment import build_collaboratory, build_single_server
from repro.core.server import DiscoverServer
from tests.pipeline.test_parity_golden import CAPTURE_SCRIPT, GOLDEN

ROOT = Path(__file__).parents[2]
PAPER_ROWS = json.loads((ROOT / "tests/bench/paper_rows.json").read_text())

PAPER_ARGUMENTS = [
    "domain", "cost_model", "naming_ref", "trader_ref",
    "client_buffer_capacity", "peer_call_timeout", "update_mode",
    "update_poll_interval", "remote_access"]
COLLABORATORS = ["tracer", "ledger", "timeseries", "journal"]

INF = float("inf")
#: parameter names and defaults as captured before the planes became
#: objects, less the builders' unused ``sim`` keyword and
#: ``build_collaboratory``'s directory sharding, which is the fleet's
BUILDERS = {
    build_collaboratory: {
        "apps_hosts_per_domain": 4, "client_hosts_per_domain": 4,
        "names": None, "spec": None, "cost_model": None, "server_cpus": 1,
        "client_buffer_capacity": INF, "use_directory": False,
        "update_mode": "push", "update_poll_interval": 0.5,
        "remote_access": "relay", "trace_sampling": "always",
        "trace_max_spans": 50_000, "health_period": 0.5,
        "health_gossip_period": None, "health_enabled": True,
        "accounting_enabled": True, "log_sink": None,
        "storage_backend_factory": None, "storage_snapshot_every": None,
        "timeseries_bucket_width": 0.25},
    build_single_server: {
        "app_hosts": 4, "client_hosts": 4, "cost_model": None,
        "server_cpus": 1, "spec": None, "client_buffer_capacity": INF},
    build_fleet: {
        "directory_shards": 4, "directory_replicas": 2, "spec": None,
        "cost_model": None, "peer_call_timeout": 3.0, "health_period": 5.0},
}


def keyword_defaults(fn):
    return {name: p.default
            for name, p in inspect.signature(fn).parameters.items()
            if p.kind is p.KEYWORD_ONLY}


def test_the_server_takes_the_papers_nine_arguments_and_four_collaborators():
    assert list(keyword_defaults(DiscoverServer.__init__)) == \
        PAPER_ARGUMENTS + COLLABORATORS
    assert all(keyword_defaults(DiscoverServer.__init__)[name] is None
               for name in COLLABORATORS)
    assert [name for name, p
            in inspect.signature(DiscoverServer.__init__).parameters.items()
            if p.kind is not p.KEYWORD_ONLY] == ["self", "host"]


@pytest.mark.parametrize("builder", BUILDERS, ids=lambda fn: fn.__name__)
def test_the_builders_keep_their_keywords_and_defaults(builder):
    assert keyword_defaults(builder) == BUILDERS[builder]


# -- no planes, same paper ---------------------------------------------------

PLANELESS = """\
from repro.core import deployment
from repro.core.server import DiscoverServer

def paper_server(host, *, tracer, ledger, timeseries, journal, **paper):
    return DiscoverServer(host, **paper)

deployment.DiscoverServer = paper_server
deployment.HealthMonitor = lambda server, **options: server.health
"""

PAPER_EXPERIMENTS = """
from repro.bench.experiments import EXPERIMENTS
print()
json.dump({exp_id: EXPERIMENTS[exp_id].run(quick=True)[0]
           for exp_id in sys.argv[1:]}, sys.stdout)
"""

#: the keys ``pipeline_counters`` adds to a row: what the planes report
#: about themselves, not what the experiment measured
FOOTER = set(pipeline_counters(())) | {
    "spans_recorded", "traces_recorded", "spans_dropped"}


@pytest.fixture(scope="module")
def planeless():
    """``(golden rows, paper rows)`` of deployments whose servers were
    handed no tracer, ledger, registry or journal and no heartbeat."""
    proc = subprocess.run(
        [sys.executable, "-c",
         PLANELESS + CAPTURE_SCRIPT + PAPER_EXPERIMENTS, *PAPER_ROWS],
        capture_output=True, text=True, timeout=300, cwd=str(ROOT),
        env={"PYTHONPATH": "src"})
    assert proc.returncode == 0, proc.stderr
    golden, paper = map(json.loads, proc.stdout.splitlines())
    return golden, paper


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_planeless_scenario_matches_the_golden_seed(key, planeless):
    row = planeless[0][key]
    assert {k: row.get(k) for k in GOLDEN[key]} == GOLDEN[key]
    # and the servers really had nothing attached
    assert row["ts_points"] == row["storage_appends"] == 0
    assert row["cost_requests"] == row["health_healthy"] == 0


@pytest.mark.parametrize("exp_id", PAPER_ROWS)
def test_planeless_paper_experiment_matches_every_measured_column(
        exp_id, planeless):
    def measured(rows):
        return [{k: v for k, v in row.items() if k not in FOOTER}
                for row in rows]

    rows = planeless[1][exp_id]
    assert measured(rows) == measured(PAPER_ROWS[exp_id])
    assert any(set(row) - FOOTER for row in rows)
