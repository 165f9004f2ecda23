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
    assert len(backend.entries()) == 5


def test_reset_wal_replaces_the_region(backend):
    for i in range(4):
        backend.append({"lsn": i + 1})
    backend.reset_wal([{"lsn": 4}])
    assert [e["lsn"] for e in backend.entries()] == [4]
    # still appendable after the rewrite
    backend.append({"lsn": 5})
    assert len(backend.entries()) == 2


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
    assert list(backend.archive_entries(0)) == []
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


# ---------------------- what the heap holds, and reads ----------------------

#: a WAL-shaped entry (kept as column slots) and others the backend
#: must hand back as they were appended
APPENDED = [
    {"lsn": 1, "kind": "db.insert", "at": 0.5, "data": {"table": "t"}},
    {"lsn": 4},
    {"kind": "locks.acquire", "lsn": 2, "at": 1.0, "data": {}},
    {"lsn": 3, "kind": "seq.seq", "at": 2.0, "data": {"n": 1}, "extra": 1},
    {"a": 1, "b": 2, "c": 3, "d": 4},
]


def test_memory_reads_return_the_dicts_appended():
    backend = MemoryBackend()
    for entry in APPENDED:
        backend.append(entry)
    backend.archive_append(APPENDED, after=0)
    for read in (backend.entries(), list(backend.archive_entries(5))):
        assert read == APPENDED
        assert [list(e) for e in read] == [list(e) for e in APPENDED]
        # the payload is not copied: the heap holds the caller's dict
        assert read[0]["data"] is APPENDED[0]["data"]
    # only the first is WAL-shaped: the others are kept whole
    assert backend._wal.kind == ["db.insert", None, None, None, None]
    assert backend._wal.data[1] is APPENDED[1]
    backend.reset_wal(APPENDED[::-1])
    assert backend.entries() == APPENDED[::-1]


def test_jsonl_archive_decodes_lazily_and_names_a_corrupt_line(tmp_path):
    """Entries are decoded as they are consumed, a chunk of lines at a
    time; a corrupt line is named by its number, past the first chunk
    too."""
    b = JsonlBackend(tmp_path)
    b.archive_append([{"lsn": i} for i in range(1, 1101)], after=0)
    with open(b.archive_path, "r+", encoding="utf-8") as fh:
        lines = fh.readlines()
        lines[1049] = '{"lsn": 1050,,\n'
        fh.seek(0)
        fh.writelines(lines)
        fh.truncate()
    read = b.archive_entries(1100)  # nothing is decoded yet
    assert [next(read)["lsn"] for _ in range(1024)] == list(range(1, 1025))
    with pytest.raises(StorageError,
                       match=r"corrupt archive .*archive\.jsonl line 1050"):
        next(read)
    # a reader handed only the intact prefix never meets the bad line
    assert [e["lsn"] for e in b.archive_entries(1049)][-1] == 1049
    b.close()
