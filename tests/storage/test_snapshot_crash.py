"""A snapshot interrupted at any backend write recovers exactly.

The planes are the server's own (`Database`, `LockManager`,
`CollaborationManager`) wired to one journal the way `DiscoverServer`
wires them, without the server around them: the archive invariant — no
record lost, none duplicated, none out of order — is the journal's to
keep, whatever drives it.
"""

import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.collaboration import CollaborationManager
from repro.core.database import Database
from repro.core.locking import LockError, LockManager
from repro.sim import Simulator
from repro.storage import JsonlBackend, MemoryBackend, StateJournal

APP = "s0#a1"


class Planes:
    """The journaled planes of one server over ``backend``."""

    def __init__(self, backend):
        self.journal = journal = StateJournal(backend, snapshot_every=0)
        self.db = Database(journal=journal)
        self.collab = CollaborationManager(Simulator(), "s0",
                                           journal=journal)
        self.locks = LockManager(journal=journal)
        journal.register_plane("db", apply=self.db.apply_event)
        journal.register_plane(
            "collab", snapshot=self.collab.snapshot_state,
            restore=self.collab.restore_state, apply=self.collab.apply_event)
        journal.register_plane(
            "locks", snapshot=self.locks.snapshot_state,
            restore=self.locks.restore_state, apply=self.locks.apply_event)

    def insert(self, table, value):
        return self.db.table(table).insert("alice", {"v": value},
                                           created_at=float(value),
                                           readers=["*"])

    def rows(self, with_ids=True):
        return {name: [((r.record_id,) if with_ids else ())
                       + (r.owner, r.created_at, r.data, sorted(r.readers))
                       for r in self.db.table(name).select("anyone")]
                for name in sorted(self.db._tables)}

    def facts(self, with_ids=True):
        # a refused release leaves a never-used lock entry behind, which
        # is not journaled and says nothing
        locks = {app_id: doc
                 for app_id, doc in self.locks.snapshot_state().items()
                 if doc != {"holder": None, "waiters": [], "grants": 0}}
        return {"db": self.rows(with_ids),
                "collab": self.collab.snapshot_state(), "locks": locks}


def reopen(tmp_path, backend):
    """The process died: drop its handles, open the directory afresh."""
    backend.close()
    reopened = JsonlBackend(tmp_path)
    planes = Planes(reopened)
    report = planes.journal.recover()
    return planes, report


def assert_archive_intact(planes, expected_rows):
    assert planes.rows() == expected_rows
    ids = [row[0] for rows in planes.rows().values() for row in rows]
    assert len(ids) == len(set(ids)), "a record was applied twice"


class Crash(Exception):
    pass


def crash_after(backend, op):
    """Make ``backend.<op>`` complete its write, then kill the caller."""
    write = getattr(backend, op)

    def dying(*args, **kwargs):
        write(*args, **kwargs)
        raise Crash(op)

    setattr(backend, op, dying)


@pytest.mark.parametrize("op, torn", [
    ("archive_append", False),
    ("archive_append", True),
    ("save_snapshot", False),
    ("reset_wal", False),
])
def test_crash_at_each_write_of_a_snapshot(tmp_path, op, torn):
    backend = JsonlBackend(tmp_path)
    planes = Planes(backend)
    alice = planes.collab.create_session("alice").client_id
    bob = planes.collab.create_session("bob").client_id
    for i in range(5):
        planes.insert("session", i)
    planes.locks.acquire(APP, alice)
    planes.journal.take_snapshot()          # generation 1: 5 archived
    for i in range(5, 9):
        planes.insert("session" if i % 2 else "notes", i)
    planes.locks.acquire(APP, bob)
    planes.collab.subscribe(bob, APP)
    planes.collab.join_group(bob, APP, "scientists")
    pre = planes.facts()

    crash_after(backend, op)
    with pytest.raises(Crash):
        planes.journal.take_snapshot()      # generation 2 dies part-way
    if torn:
        archive = tmp_path / JsonlBackend.ARCHIVE_NAME
        size = archive.stat().st_size
        with open(archive, "rb+") as fh:
            fh.truncate(size - 7)           # mid-way through the last line

    planes2, report = reopen(tmp_path, backend)
    assert planes2.facts() == pre
    assert_archive_intact(planes2, pre["db"])
    # each record was read from exactly one place
    assert report.archived + report.planes.get("db", 0) == 9
    assert report.archived == (5 if op == "archive_append" else 9)

    # and the directory is still a good one to keep writing to
    planes2.insert("session", 9)
    planes2.locks.release(APP, alice)
    planes2.journal.take_snapshot()
    planes2.insert("notes", 10)
    post = planes2.facts()
    planes3, report = reopen(tmp_path, planes2.journal.wal.backend)
    assert planes3.facts() == post
    assert_archive_intact(planes3, post["db"])
    assert (report.archived, report.replayed) == (10, 1)
    lsns = [e["lsn"] for e in planes3.journal.wal.backend.archive_entries(10)]
    assert lsns == sorted(set(lsns))
    planes3.journal.wal.backend.close()


CLIENTS = ("s0:c1", "s0:c2", "s0:c3")
APPS = ("s0#a1", "s0#a2")
OPS = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(("session", "notes")),
              st.integers(0, 99)),
    st.tuples(st.just("acquire"), st.sampled_from(APPS),
              st.sampled_from(CLIENTS)),
    st.tuples(st.just("release"), st.sampled_from(APPS),
              st.sampled_from(CLIENTS)),
    st.tuples(st.just("join"), st.sampled_from(CLIENTS),
              st.sampled_from(("scientists", "students"))),
    st.tuples(st.just("leave"), st.sampled_from(CLIENTS),
              st.sampled_from(("scientists", "students"))),
    st.tuples(st.just("snapshot")),
)


def run_ops(planes, ops):
    for _ in CLIENTS:
        session = planes.collab.create_session("alice")
        planes.collab.subscribe(session.client_id, APPS[0])
    for op, *args in ops:
        if op == "insert":
            planes.insert(*args)
        elif op == "acquire":
            planes.locks.acquire(*args)
        elif op == "release":
            try:
                planes.locks.release(*args)
            except LockError:
                pass                        # not the holder: no mutation
        elif op == "join":
            planes.collab.join_group(args[0], APPS[0], args[1])
        elif op == "leave":
            planes.collab.leave_group(args[0], APPS[0], args[1])
        else:
            planes.journal.take_snapshot()


@settings(max_examples=40, deadline=None)
@given(st.lists(OPS, max_size=40))
def test_any_interleaving_recovers_the_same_on_both_media(ops):
    memory = MemoryBackend()
    live_mem = Planes(memory)
    run_ops(live_mem, ops)
    back_mem = Planes(memory)
    back_mem.journal.recover()
    assert back_mem.facts() == live_mem.facts()

    with tempfile.TemporaryDirectory(prefix="journal-") as tmp:
        disk = JsonlBackend(tmp)
        live_disk = Planes(disk)
        run_ops(live_disk, ops)
        disk.close()
        reopened = JsonlBackend(tmp)
        back_disk = Planes(reopened)
        back_disk.journal.recover()
        reopened.close()
    assert back_disk.facts() == live_disk.facts()
    # record ids come from one process-wide sequence, so the two runs
    # differ in them and in nothing else
    assert back_disk.facts(with_ids=False) == back_mem.facts(with_ids=False)
