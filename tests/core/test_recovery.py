"""Crash recovery: kill a server, restart it, rebuild from snapshot + WAL.

Two layers of coverage:

- direct plane rebuild — mutate every journaled plane, drop the server
  object, hand the surviving backend to a replacement, assert the state
  came back (including the on-disk JSONL backend across a reopen);
- the E12 drill — the full kill → restart → recover → latecomer-catchup
  scenario, deterministic across runs.
"""

import pytest

from repro.apps import SyntheticApp
from repro.bench.scenarios import run_recovery_drill
from repro.core.deployment import build_collaboratory
from repro.storage import JsonlBackend


# --------------------- direct plane rebuild --------------------------------

def populate(collab):
    """Mutate every journaled plane of domain 0's server."""
    server = collab.server_of(0)
    app_id = f"{server.name}#a1"
    s1 = server.collab.create_session("alice")
    s2 = server.collab.create_session("bob")
    server.collab.subscribe(s1.client_id, app_id)
    server.collab.subscribe(s2.client_id, app_id)
    server.collab.join_group(s1.client_id, app_id, "scientists")
    server.collab.join_group(s2.client_id, app_id, "scientists")
    server.collab.leave_group(s2.client_id, app_id, "scientists")
    assert server.locks.acquire(app_id, s1.client_id) == "granted"
    assert server.locks.acquire(app_id, s2.client_id) == "queued"
    server.archive.log_interaction(app_id, "alice", "command",
                                   {"command": "set_param"})
    server.db.table("notes").insert("alice", {"v": 1}, created_at=0.0,
                                    readers=["bob"])
    return server, app_id, s1, s2


def assert_recovered(server2, app_id, s1, s2):
    assert sorted(server2.collab._sessions) == sorted([s1.client_id,
                                                       s2.client_id])
    assert server2.collab._sessions[s1.client_id].user == "alice"
    assert app_id in server2.collab._sessions[s1.client_id].apps
    assert server2.collab.members_of(app_id, "scientists") == [s1.client_id]
    assert server2.locks.holder_of(app_id) == s1.client_id
    assert server2.locks.queue_length(app_id) == 1
    assert server2.archive.interaction_count(app_id) == 1
    assert len(server2.db.table("notes").select("bob")) == 1


def test_restart_rebuilds_all_planes_from_wal():
    collab = build_collaboratory(1)
    collab.run_bootstrap()
    server, app_id, s1, s2 = populate(collab)
    server.stop()

    server2, report = collab.restart_server(server.name)
    assert server2 is not server
    assert server2 is collab.server_of(0)
    assert report.replayed > 0
    assert report.snapshot_lsn == 0  # cadence never reached: pure replay
    assert_recovered(server2, app_id, s1, s2)
    collab.stop()


def test_restart_recovers_from_snapshot_plus_tail():
    collab = build_collaboratory(1, storage_snapshot_every=4)
    collab.run_bootstrap()
    server, app_id, s1, s2 = populate(collab)
    server.stop()

    server2, report = collab.restart_server(server.name)
    assert report.snapshot_lsn > 0
    assert report.replayed < report.last_lsn  # most came from the snapshot
    assert_recovered(server2, app_id, s1, s2)
    collab.stop()


def test_replacement_is_built_the_way_the_original_was():
    """Every option the builder was given reaches the replacement, which
    shares the deployment's tracer and ledger and gets the surviving
    backend."""
    lines = []
    collab = build_collaboratory(
        1, timeseries_bucket_width=1.0, storage_snapshot_every=4,
        health_period=2.0, health_gossip_period=1.0, log_sink=lines.append)
    collab.run_bootstrap()
    server = collab.server_of(0)
    server.stop()

    def options(s):
        return (s.timeseries.bucket_width, s.journal.snapshot_every,
                s.health.period, s.health.gossip_period, s.health.enabled,
                s.log.sink, s.tracer, s.ledger, s.journal.wal.backend)

    server2, _report = collab.restart_server(server.name)
    assert options(server2) == options(server) == (
        1.0, 4, 2.0, 1.0, True, lines.append, collab.tracer, collab.ledger,
        collab.storage[server.name])
    assert server2.timeseries is not server.timeseries
    assert server2.journal is not server.journal
    assert '"event": "server.recovered"' in lines[-1]
    collab.stop()


def test_restarted_server_continues_counter_sequences():
    """Client/app id counters must not collide with pre-crash ids."""
    collab = build_collaboratory(1)
    collab.run_bootstrap()
    server, app_id, s1, s2 = populate(collab)
    pre_app_id = server.daemon.next_app_id()
    server.stop()

    server2, _report = collab.restart_server(server.name)
    s3 = server2.collab.create_session("carol")
    assert s3.client_id not in (s1.client_id, s2.client_id)
    assert server2.daemon.next_app_id() != pre_app_id
    collab.stop()


def test_recovery_from_reopened_jsonl_directory(tmp_path):
    """The on-disk backend survives a real close: a second backend object
    over the same directory feeds the replacement server."""
    def factory(name):
        return JsonlBackend(tmp_path / name)

    collab = build_collaboratory(1, storage_backend_factory=factory,
                                 storage_snapshot_every=6)
    collab.run_bootstrap()
    server, app_id, s1, s2 = populate(collab)
    server.stop()
    # the process dies: close the file handles, reopen the directory
    collab.storage[server.name].close()
    collab.storage[server.name] = JsonlBackend(tmp_path / server.name)

    server2, report = collab.restart_server(server.name)
    assert (tmp_path / server.name / JsonlBackend.WAL_NAME).exists()
    assert report.snapshot_lsn > 0
    assert_recovered(server2, app_id, s1, s2)
    collab.stop()


def test_journaling_is_zero_event_bookkeeping():
    """Same workload with and without aggressive snapshotting → identical
    virtual time (durability must never perturb the science)."""
    def run(snapshot_every):
        collab = build_collaboratory(1,
                                     storage_snapshot_every=snapshot_every)
        collab.run_bootstrap()
        collab.add_app(0, SyntheticApp, "sim", acl={"alice": "write"})
        collab.sim.run(until=5.0)
        now = collab.sim.now
        collab.stop()
        return now

    assert run(1) == run(10_000)


# --------------------------- the E12 drill ---------------------------------

@pytest.fixture(scope="module")
def drill_run():
    row, collab = run_recovery_drill()
    yield row
    collab.stop()


def test_drill_sessions_and_archive_recover(drill_run):
    row = drill_run
    assert row["recovered_sessions"] == row["pre_sessions"] > 0
    assert row["recovered_interactions"] == row["pre_interactions"] > 0


def test_drill_lock_table_recovers(drill_run):
    assert drill_run["lock_preserved"]
    assert drill_run["queue_preserved"]


def test_drill_group_membership_recovers(drill_run):
    assert drill_run["groups_preserved"]


def test_drill_replays_only_the_tail(drill_run):
    row = drill_run
    assert row["pre_snapshots"] > 0
    assert row["snapshot_lsn"] > 0
    assert 0 < row["wal_replayed"] < row["wal_appends"]


def test_drill_latecomer_catches_up_through_restarted_server(drill_run):
    row = drill_run
    # the remote latecomer reads the recovered archive: every pre-crash
    # command comes back, plus a non-empty app log
    assert row["catchup_records"] == row["pre_interactions"]
    assert row["app_log_records"] > 0


def test_drill_surfaces_storage_counters(drill_run):
    row = drill_run
    assert row["storage_recoveries"] == 1
    assert row["storage_replayed"] == row["wal_replayed"]


def test_drill_is_deterministic():
    """Same parameters, fresh sim (and so fresh ids, whose digits are
    wire bytes) → identical row."""
    row_a, collab_a = run_recovery_drill(n_commands=5, settle=2.0)
    collab_a.stop()
    row_b, collab_b = run_recovery_drill(n_commands=5, settle=2.0)
    collab_b.stop()
    assert row_a == row_b


def test_drill_runs_past_the_gain_range():
    """Regression: command i steered gain to float(i), so any drill longer
    than 101 commands was rejected by the parameter's 0..100 bound."""
    row, collab = run_recovery_drill(n_commands=120, command_interval=0.1)
    collab.stop()
    assert row["pre_interactions"] >= 120
    assert row["recovered_interactions"] == row["pre_interactions"]
    assert row["catchup_records"] == row["pre_interactions"]
