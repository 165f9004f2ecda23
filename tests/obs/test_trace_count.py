"""The end-of-run trace count, read off the id column.

A run's footer (``traces_recorded``, through ``pipeline_counters``) and
the store's snapshot (``traces``) count distinct trace ids from a sorted
copy of the id column, building no int object per row.  Both must equal
``len(set(...))`` of the ids written — however traces interleave, for an
empty store, and for a store rebuilt by ``load_jsonl`` — and
``trace_ids`` must still list them in order.
"""

import os
import tempfile
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import pipeline_counters
from repro.obs import SpanStore, export_jsonl, load_jsonl

trace_ids = st.lists(
    st.one_of(st.integers(1, 6), st.integers(-2**63, 2**63 - 1)),
    max_size=60)


def filled(ids):
    store = SpanStore(max_spans=max(len(ids), 1))
    for span_id, trace_id in enumerate(ids, 1):
        store.add(trace_id, span_id, None if span_id % 3 else span_id - 1,
                  float(span_id), span_id + 0.5, "op", "plane", "srv", "ok",
                  "", {"n": span_id})
    return store


def counts(store):
    return (pipeline_counters([], SimpleNamespace(store=store))
            ["traces_recorded"], store.snapshot()["traces"],
            store.trace_count())


@settings(max_examples=100, deadline=None)
@given(trace_ids)
def test_counts_equal_the_distinct_ids_written(ids):
    store = filled(ids)
    assert counts(store) == (len(set(ids)),) * 3
    assert store.trace_ids() == sorted(set(ids))
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "spans.jsonl")
        export_jsonl(store, path)
        reloaded = load_jsonl(path)
    assert counts(reloaded) == (len(set(ids)),) * 3
    assert reloaded.trace_ids() == store.trace_ids()


def test_an_empty_store_counts_none():
    store = SpanStore()
    assert counts(store) == (0, 0, 0)
    assert store.trace_ids() == []


def test_the_store_takes_rows_after_a_count():
    """Counting reads the column through a buffer it lets go of: the
    array still grows afterwards."""
    store = filled([3, 1, 3])
    assert store.trace_count() == 2
    store.room += 1
    store.add(2, 9, None, 0.0, 1.0, "op", "", "", "ok", "", {})
    assert (store.trace_count(), store.trace_ids()) == (3, [1, 2, 3])
