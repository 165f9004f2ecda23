"""Unit tests for the record store and the session archive."""

import gc
import tracemalloc

import pytest

from repro.core.archival import SessionArchive
from repro.core.database import Database, Record, Table
from repro.sim import Simulator
from repro.storage import JsonlBackend, MemoryBackend, StateJournal


# ------------------------------- database ----------------------------------

def test_insert_and_select_by_owner():
    tbl = Table("t")
    tbl.insert("alice", {"v": 1}, created_at=0.0)
    tbl.insert("bob", {"v": 2}, created_at=1.0)
    assert [r.data["v"] for r in tbl.select("alice")] == [1]
    assert [r.data["v"] for r in tbl.select("bob")] == [2]


def test_readers_grant_access():
    tbl = Table("t")
    tbl.insert("alice", {"v": 1}, created_at=0.0, readers=["bob"])
    assert [r.data["v"] for r in tbl.select("bob")] == [1]
    assert tbl.select("carol") == []


def test_wildcard_reader():
    tbl = Table("t")
    tbl.insert("alice", {"v": 1}, created_at=0.0, readers=["*"])
    assert len(tbl.select("anyone")) == 1


def test_select_predicate_and_limit():
    tbl = Table("t")
    for i in range(10):
        tbl.insert("alice", {"v": i}, created_at=float(i))
    evens = tbl.select("alice", predicate=lambda r: r.data["v"] % 2 == 0,
                       limit=3)
    assert [r.data["v"] for r in evens] == [0, 2, 4]


def test_tail():
    tbl = Table("t")
    for i in range(10):
        tbl.insert("alice", {"v": i}, created_at=float(i))
    assert [r.data["v"] for r in tbl.tail("alice", 3)] == [7, 8, 9]


def test_record_ids_unique_and_increasing():
    tbl = Table("t")
    r1 = tbl.insert("a", {}, 0.0)
    r2 = tbl.insert("a", {}, 0.0)
    assert r2.record_id > r1.record_id


def test_count_ignores_acl_and_accepts_predicate():
    tbl = Table("t")
    tbl.insert("alice", {"v": 1}, created_at=0.0)
    tbl.insert("bob", {"v": 2}, created_at=1.0, readers=["carol"])
    assert tbl.count() == 2  # bookkeeping: every owner's records count
    assert tbl.count(lambda r: r.data["v"] > 1) == 1
    assert tbl.count(lambda r: False) == 0


def test_database_creates_tables_on_demand():
    db = Database()
    t1 = db.table("x")
    assert db.table("x") is t1
    db.table("y")
    assert sorted(db._tables) == ["x", "y"]


# ------------------------- what a record retains ---------------------------

ACL = ["alice", "bob", "carol"]


def journaled_db(backend, clock=lambda: 0.0):
    journal = StateJournal(backend, clock=clock, snapshot_every=0)
    db = Database(journal=journal)
    journal.register_plane("db", apply=db.apply_event)
    return db, journal


def test_an_app_log_record_retains_at_most_900_bytes(sim):
    """Record, data dict, journal payload and WAL entry together: one
    copy of the data, one shared reader set (1 376 B per record when the
    record kept a ``__dict__``, two data dicts and its own reader set)."""
    db, _journal = journaled_db(MemoryBackend())
    archive = SessionArchive(sim, db)
    archive.log_app_record("app-0", "owner", "update", {"seq": -1},
                           readers=list(ACL))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20_000):
            archive.log_app_record("app-0", "owner", "update",
                                   {"seq": i, "timestamp": i * 0.5},
                                   readers=list(ACL))
        gc.collect()
        per_record = (tracemalloc.get_traced_memory()[0] - before) / 20_000
    finally:
        tracemalloc.stop()
    assert per_record <= 900, per_record


def test_record_has_no_instance_dict():
    rec = Table("t").insert("alice", {"v": 1}, created_at=0.0)
    assert not hasattr(rec, "__dict__")
    assert rec == Record(rec.record_id, "alice", 0.0, {"v": 1}, frozenset())


def test_equal_reader_sets_share_one_frozenset_per_database():
    db = Database()
    a = db.table("x").insert("o", {}, 0.0, readers=["bob", "alice"])
    b = db.table("y").insert("o", {}, 0.0, readers=("alice", "bob", "bob"))
    c = db.table("x").insert("o", {}, 0.0, readers=["carol"])
    assert a.readers == frozenset({"alice", "bob"})
    assert a.readers is b.readers
    assert c.readers == frozenset({"carol"}) and c.readers is not a.readers
    assert (db.table("x").insert("o", {}, 0.0).readers
            is db.table("y").insert("o", {}, 0.0, readers=[]).readers)
    other = Database().table("x").insert("o", {}, 0.0, readers=["alice",
                                                                "bob"])
    assert other.readers == a.readers and other.readers is not a.readers


def test_the_callers_dict_is_copied_once_for_record_and_journal():
    db, journal = journaled_db(MemoryBackend())
    data = {"v": 1}
    rec = db.table("t").insert("alice", data, created_at=0.0,
                               readers=["bob"])
    (entry,) = journal.wal.backend.entries()
    payload = entry["data"]
    assert payload["data"] is rec.data and rec.data is not data
    data["v"] = 2
    data["extra"] = True
    assert rec.data == {"v": 1} and payload["data"] == {"v": 1}


def test_a_recovered_record_adopts_its_payloads_dict():
    """Recovery makes no second copy: the record keeps the dict its
    journal payload decoded to (here, the one the heap still holds)."""
    backend = MemoryBackend()
    db, _journal = journaled_db(backend)
    db.table("t").insert("alice", {"v": 1}, created_at=0.0)
    again, journal = journaled_db(backend)
    journal.recover()
    (rec,) = again.table("t").select("alice")
    (entry,) = backend.entries()
    assert rec.data == {"v": 1} and rec.data is entry["data"]["data"]


def test_a_fixed_insert_writes_the_same_wal_line(tmp_path):
    db, _journal = journaled_db(JsonlBackend(tmp_path), clock=lambda: 2.5)
    rec = db.table("app_log").insert(
        "owner", {"app_id": "app-1", "kind": "update", "seq": 7,
                  "timestamp": 2.25},
        created_at=2.5, readers=["carol", "alice", "bob", "alice"])
    assert (tmp_path / "wal.jsonl").read_text() == (
        '{"lsn":1,"kind":"db.insert","at":2.5,"data":{"table":"app_log",'
        f'"record_id":{rec.record_id},"owner":"owner","created_at":2.5,'
        '"data":{"app_id":"app-1","kind":"update","seq":7,'
        '"timestamp":2.25},"readers":["alice","bob","carol"]}}\n')


@pytest.mark.parametrize("medium", ["memory", "jsonl"])
def test_recover_rebuilds_equal_records(tmp_path, medium):
    backend = (MemoryBackend() if medium == "memory"
               else JsonlBackend(tmp_path))
    db, journal = journaled_db(backend)
    originals = []
    for i, readers in enumerate([ACL, None, ["*"], ACL[::-1], ["bob"]]):
        table = db.table("app_log" if i % 2 else "interactions")
        originals.append(table.insert(f"u{i}", {"seq": i, "at": i / 4},
                                      created_at=i / 2, readers=readers))
        if i == 2:  # the first three leave the WAL for the archive
            journal.take_snapshot()
    if medium == "jsonl":
        backend.close()
        backend = JsonlBackend(tmp_path)
    again, journal = journaled_db(backend)
    journal.recover()
    # each original has an owner of its own: what they read is their record
    rebuilt = {rec.record_id: rec for orig in originals
               for name in sorted(again._tables)
               for rec in again.table(name).select(orig.owner)
               if rec.owner == orig.owner}
    assert sorted(rebuilt) == [rec.record_id for rec in originals]
    for rec in originals:
        got = rebuilt[rec.record_id]
        assert (got.record_id, got.owner, got.created_at, got.data,
                got.readers) == (rec.record_id, rec.owner, rec.created_at,
                                 rec.data, rec.readers)
        assert type(got.readers) is frozenset
    assert rebuilt[originals[0].record_id].readers is rebuilt[
        originals[3].record_id].readers


# ------------------------------- archive -----------------------------------

@pytest.fixture
def archive(sim):
    return SessionArchive(sim)


def test_interaction_log_and_replay(sim, archive):
    archive.log_interaction("app-1", "alice", "command",
                            {"command": "set_param", "request_id": 1})
    archive.log_interaction("app-1", "alice", "response",
                            {"request_id": 1})
    archive.log_interaction("app-2", "alice", "command",
                            {"command": "pause", "request_id": 2})
    records = archive.replay_interactions("app-1", "alice")
    assert [r["kind"] for r in records] == ["command", "response"]
    assert records[0]["command"] == "set_param"
    assert archive.interaction_count("app-1") == 2
    assert archive.interaction_count() == 3


def test_replay_respects_ownership(sim, archive):
    archive.log_interaction("app-1", "alice", "command", {"command": "x"})
    assert archive.replay_interactions("app-1", "bob") == []


def test_replay_with_readers_shares_history(sim, archive):
    archive.log_interaction("app-1", "alice", "command", {"command": "x"},
                            readers=["bob"])
    assert len(archive.replay_interactions("app-1", "bob")) == 1


def test_replay_since_filters_by_time(sim, archive):
    archive.log_interaction("app-1", "alice", "command", {"command": "x"})
    # advance the clock, then log a second interaction
    sim.call_later(10.0, lambda: archive.log_interaction(
        "app-1", "alice", "command", {"command": "y"}))
    sim.run()
    early = archive.replay_interactions("app-1", "alice", since=5.0)
    assert [r["command"] for r in early] == ["y"]


def test_app_log_ownership_and_readers(sim, archive):
    archive.log_app_record("app-1", "owner-user", "update", {"seq": 1},
                           readers=["alice", "bob"])
    assert len(archive.replay_app_log("app-1", "alice")) == 1
    assert len(archive.replay_app_log("app-1", "owner-user")) == 1
    assert archive.replay_app_log("app-1", "eve") == []


def test_latecomer_catchup_returns_recent(sim, archive):
    for i in range(30):
        archive.log_interaction("app-1", "alice", "command",
                                {"command": f"cmd-{i}"}, readers=["*"])
    recent = archive.latecomer_catchup("app-1", "newcomer", n=5)
    assert [r["command"] for r in recent] == [
        "cmd-25", "cmd-26", "cmd-27", "cmd-28", "cmd-29"]


def test_catchup_scoped_to_app(sim, archive):
    archive.log_interaction("app-1", "alice", "command", {"command": "a"},
                            readers=["*"])
    archive.log_interaction("app-2", "alice", "command", {"command": "b"},
                            readers=["*"])
    recent = archive.latecomer_catchup("app-2", "bob", n=10)
    assert [r["command"] for r in recent] == ["b"]


# -------------------------- ACL boundary cases ------------------------------

def test_catchup_respects_readers_list(sim, archive):
    """A latecomer only sees interactions shared with them (or everyone);
    records scoped to the owner stay private."""
    archive.log_interaction("app-1", "alice", "command", {"command": "prv"})
    archive.log_interaction("app-1", "alice", "command", {"command": "shr"},
                            readers=["bob"])
    archive.log_interaction("app-1", "alice", "command", {"command": "pub"},
                            readers=["*"])
    assert [r["command"] for r in
            archive.latecomer_catchup("app-1", "bob")] == ["shr", "pub"]
    assert [r["command"] for r in
            archive.latecomer_catchup("app-1", "eve")] == ["pub"]
    assert [r["command"] for r in
            archive.latecomer_catchup("app-1", "alice")] == ["prv", "shr",
                                                             "pub"]


def test_app_log_readers_share_but_never_widen(sim, archive):
    """Readers grant read access to the listed users only — being a
    reader of one record reveals nothing about the app's other records."""
    archive.log_app_record("app-1", "owner", "status", {"seq": 1},
                           readers=["alice"])
    archive.log_app_record("app-1", "owner", "status", {"seq": 2},
                           readers=["bob"])
    assert [r["seq"] for r in
            archive.replay_app_log("app-1", "alice")] == [1]
    assert [r["seq"] for r in
            archive.replay_app_log("app-1", "bob")] == [2]
    assert [r["seq"] for r in
            archive.replay_app_log("app-1", "owner")] == [1, 2]
    assert archive.replay_app_log("app-1", "eve") == []


def test_replay_app_log_since_is_inclusive(sim, archive):
    archive.log_app_record("app-1", "owner", "status", {"seq": 1})
    sim.call_later(5.0, lambda: archive.log_app_record(
        "app-1", "owner", "status", {"seq": 2}))
    sim.run()
    # since= is an inclusive lower bound on created_at
    assert [r["seq"] for r in
            archive.replay_app_log("app-1", "owner", since=5.0)] == [2]
    assert [r["seq"] for r in
            archive.replay_app_log("app-1", "owner", since=5.1)] == []
    assert [r["seq"] for r in
            archive.replay_app_log("app-1", "owner", since=0.0)] == [1, 2]


def test_replay_limit_boundaries(sim, archive):
    for i in range(5):
        archive.log_interaction("app-1", "alice", "command", {"seq": i})
    full = archive.replay_interactions("app-1", "alice")
    assert [r["seq"] for r in full] == [0, 1, 2, 3, 4]
    assert [r["seq"] for r in
            archive.replay_interactions("app-1", "alice", limit=2)] == [0, 1]
    assert archive.replay_interactions("app-1", "alice", limit=0) == []
    # limit past the end is just "everything"
    assert len(archive.replay_interactions("app-1", "alice",
                                           limit=99)) == 5


def test_catchup_n_boundaries(sim, archive):
    for i in range(3):
        archive.log_interaction("app-1", "alice", "command", {"seq": i},
                                readers=["*"])
    assert archive.latecomer_catchup("app-1", "bob", n=0) == []
    assert [r["seq"] for r in
            archive.latecomer_catchup("app-1", "bob", n=99)] == [0, 1, 2]
