"""Unit tests for the storage media (memory and JSONL-on-disk)."""

import json

import pytest

from repro.storage import JsonlBackend, MemoryBackend, StorageError


@pytest.fixture(params=["memory", "jsonl"])
def backend(request, tmp_path):
    b = (MemoryBackend() if request.param == "memory"
         else JsonlBackend(tmp_path))
    yield b
    b.close()  # every medium closes, the in-memory one as a no-op


# ------------------------- interface contract ------------------------------

def test_append_and_entries_preserve_order(backend):
    for i in range(5):
        backend.append({"lsn": i + 1, "kind": "t", "data": {"i": i}})
    entries = backend.entries()
    assert [e["lsn"] for e in entries] == [1, 2, 3, 4, 5]
    assert backend.wal_len() == 5


def test_reset_wal_replaces_the_region(backend):
    for i in range(4):
        backend.append({"lsn": i + 1})
    backend.reset_wal([{"lsn": 4}])
    assert [e["lsn"] for e in backend.entries()] == [4]
    # still appendable after the rewrite
    backend.append({"lsn": 5})
    assert backend.wal_len() == 2


def test_snapshot_slot_roundtrip(backend):
    assert backend.load_snapshot() is None
    backend.save_snapshot({"lsn": 7, "state": {"locks": {}}})
    doc = backend.load_snapshot()
    assert doc == {"lsn": 7, "state": {"locks": {}}}


def test_clear_wipes_both_regions(backend):
    backend.append({"lsn": 1})
    backend.archive_append([{"lsn": 0}], after=0)
    backend.save_snapshot({"lsn": 1, "state": {}})
    backend.clear()
    assert backend.entries() == []
    assert backend.load_snapshot() is None
    assert backend.archive_entries(0) == []
    with pytest.raises(StorageError):
        backend.archive_entries(1)


def test_archive_appends_behind_the_covered_prefix(backend):
    backend.archive_append([{"lsn": 1}, {"lsn": 2}], after=0)
    backend.archive_append([{"lsn": 3}], after=2)
    assert [e["lsn"] for e in backend.archive_entries(3)] == [1, 2, 3]
    # a reader is handed only what its snapshot covers
    assert [e["lsn"] for e in backend.archive_entries(2)] == [1, 2]
    # entries no snapshot came to cover are overwritten, not kept
    backend.archive_append([{"lsn": 4}, {"lsn": 5}], after=2)
    assert [e["lsn"] for e in backend.archive_entries(4)] == [1, 2, 4, 5]


def test_archive_shorter_than_covered_is_an_error(backend):
    backend.archive_append([{"lsn": 1}], after=0)
    with pytest.raises(StorageError, match="holds 1 entries"):
        backend.archive_entries(2)
    with pytest.raises(StorageError, match="holds 1 entries"):
        backend.archive_append([{"lsn": 9}], after=5)


# ------------------------- JSONL specifics ---------------------------------

def test_jsonl_reopen_recovers_everything(tmp_path):
    b = JsonlBackend(tmp_path)
    b.append({"lsn": 1, "kind": "db.insert"})
    b.append({"lsn": 2, "kind": "locks.acquire"})
    b.save_snapshot({"lsn": 1, "state": {"db": {}}})
    b.close()
    reopened = JsonlBackend(tmp_path)
    assert [e["lsn"] for e in reopened.entries()] == [1, 2]
    assert reopened.load_snapshot()["lsn"] == 1
    reopened.close()


def test_jsonl_torn_tail_is_dropped(tmp_path):
    b = JsonlBackend(tmp_path)
    b.append({"lsn": 1})
    b.append({"lsn": 2})
    b.close()
    # simulate a crash mid-append: a half-written last line
    with open(tmp_path / JsonlBackend.WAL_NAME, "a",
              encoding="utf-8") as fh:
        fh.write('{"lsn": 3, "kind": "db.ins')
    reopened = JsonlBackend(tmp_path)
    assert [e["lsn"] for e in reopened.entries()] == [1, 2]
    reopened.close()


def test_jsonl_append_after_a_torn_tail_is_not_lost(tmp_path):
    """Regression: the reopened file was appended to as it stood, so the
    next record was glued onto the fragment and it, and every record
    after it, failed to parse."""
    b = JsonlBackend(tmp_path)
    b.append({"lsn": 1})
    b.append({"lsn": 2})
    b.close()
    with open(tmp_path / JsonlBackend.WAL_NAME, "a",
              encoding="utf-8") as fh:
        fh.write('{"lsn": 3, "kind": "db.ins')
    reopened = JsonlBackend(tmp_path)
    reopened.append({"lsn": 3})
    reopened.append({"lsn": 4})
    assert [e["lsn"] for e in reopened.entries()] == [1, 2, 3, 4]
    reopened.close()


def test_jsonl_archive_survives_reopen_minus_a_torn_tail(tmp_path):
    b = JsonlBackend(tmp_path)
    b.archive_append([{"lsn": 1}, {"lsn": 2}], after=0)
    b.close()
    with open(tmp_path / JsonlBackend.ARCHIVE_NAME, "a",
              encoding="utf-8") as fh:
        fh.write('{"lsn": 3, "ki')
    reopened = JsonlBackend(tmp_path)
    assert [e["lsn"] for e in reopened.archive_entries(2)] == [1, 2]
    with pytest.raises(StorageError):
        reopened.archive_entries(3)
    reopened.archive_append([{"lsn": 3}], after=2)
    assert [e["lsn"] for e in reopened.archive_entries(3)] == [1, 2, 3]
    reopened.close()


def test_jsonl_snapshot_replace_is_atomic(tmp_path):
    b = JsonlBackend(tmp_path)
    b.save_snapshot({"lsn": 1, "state": {"a": 1}})
    b.save_snapshot({"lsn": 2, "state": {"a": 2}})
    # no temp file left behind; the slot holds exactly the last doc
    leftovers = [p.name for p in tmp_path.iterdir()]
    assert sorted(leftovers) == [JsonlBackend.SNAPSHOT_NAME,
                                 JsonlBackend.WAL_NAME]
    with open(tmp_path / JsonlBackend.SNAPSHOT_NAME) as fh:
        assert json.load(fh)["lsn"] == 2
    b.close()


def test_jsonl_append_after_close_raises(tmp_path):
    b = JsonlBackend(tmp_path)
    b.close()
    with pytest.raises(StorageError):
        b.append({"lsn": 1})


def test_jsonl_reads_after_close_raise(tmp_path):
    b = JsonlBackend(tmp_path)
    b.append({"lsn": 1})
    b.close()
    with pytest.raises(StorageError):
        b.entries()
    with pytest.raises(StorageError):
        b.archive_entries(0)
