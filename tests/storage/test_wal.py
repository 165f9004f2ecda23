"""Unit tests for the LSN/snapshot/compaction layer."""

from repro.storage import JsonlBackend, MemoryBackend
from repro.storage.wal import WalRecord, WriteAheadLog


def test_lsns_are_monotonic_from_one():
    wal = WriteAheadLog(MemoryBackend())
    records = [wal.append("db.insert", {"i": i}, at=float(i))
               for i in range(3)]
    assert [r.lsn for r in records] == [1, 2, 3]
    assert wal.last_lsn == 3


def test_record_roundtrips_through_entries():
    backend = MemoryBackend()
    wal = WriteAheadLog(backend)
    wal.append("locks.acquire", {"app_id": "d0#a1"}, at=2.5)
    entry = backend.entries()[0]
    record = WalRecord.from_entry(entry)
    assert record == WalRecord(1, "locks.acquire", 2.5,
                               {"app_id": "d0#a1"})


def test_snapshot_compacts_covered_records():
    backend = MemoryBackend()
    wal = WriteAheadLog(backend)
    for i in range(5):
        wal.append("db.insert", {"i": i})
    compacted = wal.write_snapshot({"db": {"rows": 5}})
    assert compacted == 5
    assert len(backend.entries()) == 0
    assert wal.snapshot_lsn == 5
    # post-snapshot appends form the new tail
    wal.append("db.insert", {"i": 5})
    assert [r.lsn for r in wal.tail()] == [6]
    assert wal.snapshot_state() == {"db": {"rows": 5}}


def test_reopen_resumes_the_lsn_sequence(tmp_path):
    b = JsonlBackend(tmp_path)
    wal = WriteAheadLog(b)
    for i in range(3):
        wal.append("db.insert", {"i": i})
    wal.write_snapshot({"db": {}})
    wal.append("db.insert", {"i": 3})  # lsn 4, the tail
    b.close()

    reopened = JsonlBackend(tmp_path)
    wal2 = WriteAheadLog(reopened)
    assert wal2.last_lsn == 4
    assert wal2.snapshot_lsn == 3
    assert [r.lsn for r in wal2.tail()] == [4]
    # the sequence continues, never restarts
    assert wal2.append("db.insert", {"i": 4}).lsn == 5
    reopened.close()
