"""What a snapshot writes depends on the appends since the last one, not
on how much was archived before — as counts of bytes, lines and reads."""

import json

from repro.core.database import Database
from repro.storage import JsonlBackend, StateJournal

BATCH = 64


class CountingBackend(JsonlBackend):
    """Counts WAL reads, and the bytes each region holds on disk."""

    def __init__(self, directory):
        super().__init__(directory)
        self.wal_reads = 0

    def entries(self):
        self.wal_reads += 1
        return super().entries()

    def sizes(self):
        return {path.name: path.stat().st_size if path.exists() else 0
                for path in (self.wal_path, self.archive_path,
                             self.snapshot_path)}


def one_more_snapshot(tmp_path, archived_before):
    """Archive ``archived_before`` records, then measure the snapshot
    that follows ``BATCH`` more appends."""
    backend = CountingBackend(tmp_path / str(archived_before))
    journal = StateJournal(backend, snapshot_every=0)
    counter = {"value": 0}
    journal.register_plane("log", apply=lambda event, data, at: None)
    journal.register_plane("counter", snapshot=lambda: dict(counter),
                           restore=counter.update,
                           apply=lambda event, data, at: None)

    def append_batch(n):
        for _ in range(n):
            journal.append("log.write", {"line": "x" * 40})
            counter["value"] += 1

    for _ in range(archived_before // BATCH):
        append_batch(BATCH)
        journal.take_snapshot()
    append_batch(BATCH)
    before, reads = backend.sizes(), backend.wal_reads
    journal.take_snapshot()
    after = backend.sizes()
    backend.close()
    # the snapshot document and the WAL are rewritten whole, the archive
    # is appended to
    written = (after[JsonlBackend.SNAPSHOT_NAME] + after[JsonlBackend.WAL_NAME]
               + after[JsonlBackend.ARCHIVE_NAME]
               - before[JsonlBackend.ARCHIVE_NAME])
    return {"written": written, "wal_reads": backend.wal_reads - reads,
            "last_lsn": journal.wal.last_lsn,
            "archive_lines": backend.archive_path.read_text().count("\n"),
            "doc": json.loads(backend.snapshot_path.read_text())}


def digits(numbers):
    return sum(len(str(n)) for n in numbers)


def test_snapshot_bytes_do_not_grow_with_the_archive(tmp_path):
    small = one_more_snapshot(tmp_path, BATCH)
    large = one_more_snapshot(tmp_path, 100 * BATCH)
    for run, archived_before in ((small, BATCH), (large, 100 * BATCH)):
        assert run["wal_reads"] == 1
        assert run["archive_lines"] == archived_before + BATCH
        assert run["doc"] == {"lsn": run["last_lsn"],
                              "archived": run["last_lsn"],
                              "state": {"counter": {
                                  "value": run["last_lsn"]}}}

    def lsn_digits(run):
        # each moved line carries its LSN; the document carries the last
        # LSN three times (lsn, archived, the counter's value)
        last = run["last_lsn"]
        return digits(range(last - BATCH + 1, last + 1)) + 3 * digits([last])

    assert (large["written"] - small["written"]
            == lsn_digits(large) - lsn_digits(small))


def test_snapshot_document_holds_no_record(tmp_path):
    backend = JsonlBackend(tmp_path)
    journal = StateJournal(backend, snapshot_every=0)
    db = Database(journal=journal)
    journal.register_plane("db", apply=db.apply_event)
    for i in range(BATCH):
        db.table("session").insert("alice", {"marker": f"rec-{i}"},
                                   created_at=float(i))
    assert journal.take_snapshot() == BATCH
    assert backend.load_snapshot() == {"lsn": BATCH, "archived": BATCH,
                                       "state": {}}
    assert "rec-" not in backend.snapshot_path.read_text()
    assert backend.archive_path.read_text().count("rec-") == BATCH
    assert backend.entries() == []
    backend.close()
    assert not hasattr(Database, "snapshot_state")
    assert not hasattr(Database, "restore_state")
