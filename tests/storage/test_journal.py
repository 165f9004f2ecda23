"""Unit tests for the StateJournal facade (plane dispatch + recovery)."""

import pytest

from repro.metrics import StorageMetrics
from repro.storage import (
    MemoryBackend,
    NULL_JOURNAL,
    StateJournal,
    StorageError,
)


class CounterPlane:
    """A minimal journaled plane: one integer, bumped by events."""

    def __init__(self):
        self.value = 0
        self.applied = []

    def bump(self, journal, n=1):
        self.value += n
        journal.append("counter.bump", {"n": n})

    def snapshot(self):
        return {"value": self.value}

    def restore(self, state):
        self.value = state["value"]

    def apply(self, event, data, at):
        assert event == "bump"
        self.value += data["n"]
        self.applied.append((data["n"], at))


def make_journal(backend=None, **kwargs):
    journal = StateJournal(backend or MemoryBackend(), **kwargs)
    plane = CounterPlane()
    journal.register_plane("counter", snapshot=plane.snapshot,
                           restore=plane.restore, apply=plane.apply)
    return journal, plane


def test_recover_replays_the_tail():
    backend = MemoryBackend()
    journal, plane = make_journal(backend)
    for _ in range(3):
        plane.bump(journal)

    journal2, plane2 = make_journal(backend)
    report = journal2.recover()
    assert plane2.value == 3
    assert report.replayed == 3
    assert report.planes == {"counter": 3}


def test_recover_restores_snapshot_then_replays():
    backend = MemoryBackend()
    journal, plane = make_journal(backend)
    for _ in range(4):
        plane.bump(journal)
    journal.take_snapshot()
    plane.bump(journal, n=10)  # the uncovered tail

    journal2, plane2 = make_journal(backend)
    report = journal2.recover()
    assert plane2.value == 14
    # only the tail replayed through apply; the rest came from the snapshot
    assert plane2.applied == [(10, 0.0)]
    assert report.snapshot_lsn == 4
    assert report.replayed == 1


def test_append_is_suppressed_during_recovery():
    backend = MemoryBackend()
    journal, plane = make_journal(backend)
    plane.bump(journal)
    before = len(backend.entries())
    journal2, plane2 = make_journal(backend)
    journal2.recover()  # apply calls plane code paths that journal
    assert len(backend.entries()) == before


def test_auto_snapshot_cadence():
    backend = MemoryBackend()
    journal, plane = make_journal(backend, snapshot_every=5)
    for _ in range(12):
        plane.bump(journal)
    # two automatic snapshots at appends 5 and 10; tail holds 11..12
    assert journal.wal.snapshot_lsn == 10
    assert len(backend.entries()) == 2


def test_clock_stamps_records():
    now = {"t": 0.0}
    journal, plane = make_journal(clock=lambda: now["t"])
    now["t"] = 3.25
    plane.bump(journal)
    assert journal.wal.tail()[0].at == 3.25


def test_metrics_counters():
    metrics = StorageMetrics()
    backend = MemoryBackend()
    journal, plane = make_journal(backend, metrics=metrics)
    for _ in range(3):
        plane.bump(journal)
    journal.take_snapshot()
    assert metrics.get("wal_appends") == 3
    assert metrics.get("snapshots") == 1
    assert metrics.get("records_compacted") == 3

    journal2, _plane2 = make_journal(backend,
                                     metrics=(metrics2 := StorageMetrics()))
    journal2.recover()
    assert metrics2.get("recoveries") == 1
    assert metrics2.snapshot() == {"recoveries": 1, "records_replayed": 0}


def test_unknown_plane_records_are_skipped():
    backend = MemoryBackend()
    journal, plane = make_journal(backend)
    plane.bump(journal)
    journal.append("retired_plane.event", {"x": 1})

    journal2, plane2 = make_journal(backend)
    report = journal2.recover()
    assert plane2.value == 1
    assert report.replayed == 1  # the unknown record did not count


class LogPlane:
    """A minimal archived plane: an append-only list."""

    def __init__(self):
        self.lines = []

    def write(self, journal, line):
        self.lines.append(line)
        journal.append("log.write", {"line": line})

    def apply(self, event, data, at):
        assert event == "write"
        self.lines.append(data["line"])


def make_archiving_journal(backend):
    journal, counter = make_journal(backend)
    log = LogPlane()
    journal.register_plane("log", apply=log.apply)
    return journal, counter, log


def test_archived_plane_moves_out_of_the_wal_and_comes_back():
    backend = MemoryBackend()
    journal, counter, log = make_archiving_journal(backend)
    for i in range(3):
        log.write(journal, f"a{i}")
        counter.bump(journal)
    assert journal.take_snapshot() == 6
    log.write(journal, "tail")

    doc = backend.load_snapshot()
    assert doc == {"lsn": 6, "archived": 3,
                   "state": {"counter": {"value": 3}}}
    assert [e["data"]["line"] for e in backend.archive_entries(3)] \
        == ["a0", "a1", "a2"]
    assert [e["lsn"] for e in backend.entries()] == [7]

    journal2, counter2, log2 = make_archiving_journal(backend)
    report = journal2.recover()
    assert log2.lines == ["a0", "a1", "a2", "tail"]
    assert counter2.value == 3
    assert (report.archived, report.replayed) == (3, 1)
    assert report.planes == {"log": 1}


def test_snapshot_state_without_a_restore_hook_is_an_error():
    """A snapshot document written when the plane still serialized its
    state must not come back as an empty plane."""
    backend = MemoryBackend()
    backend.save_snapshot({"lsn": 2, "state": {"counter": {"value": 2},
                                               "log": ["a0", "a1"]}})
    journal, _counter, _log = make_archiving_journal(backend)
    with pytest.raises(StorageError, match="'log'"):
        journal.recover()
    assert journal.recovering is False

    backend.save_snapshot({"lsn": 2, "state": {"retired": {}}})
    journal, _counter, _log = make_archiving_journal(backend)
    with pytest.raises(StorageError, match="'retired'"):
        journal.recover()


def test_archived_record_of_an_unregistered_plane_is_an_error():
    backend = MemoryBackend()
    journal, _counter, log = make_archiving_journal(backend)
    log.write(journal, "a0")
    journal.take_snapshot()
    journal2, _counter2 = make_journal(backend)  # no "log" plane
    with pytest.raises(StorageError, match="log.write"):
        journal2.recover()


def test_snapshot_and_restore_hooks_come_together():
    journal = StateJournal(MemoryBackend())
    with pytest.raises(ValueError):
        journal.register_plane("half", snapshot=dict,
                               apply=lambda e, d, at: None)


def test_null_journal_is_inert():
    NULL_JOURNAL.register_plane("x", snapshot=dict, restore=lambda s: None,
                                apply=lambda e, d, at: None)
    assert NULL_JOURNAL.append("x.y", {}) is None
    assert NULL_JOURNAL.take_snapshot() == 0
    assert NULL_JOURNAL.recover().replayed == 0
