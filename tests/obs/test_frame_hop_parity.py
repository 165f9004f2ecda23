"""``RequestCostLedger.account_frame_hop`` against the path it replaced.

The parent booked a hop as ``_charge_key(_frame_key(frame), dim, size)``:
a key, an early return for a zero amount, an entry made on demand, two
``getattr``/``setattr`` bumps and the sketch.  PR 19 writes the fields
directly.  The composition is copied here as the reference; entries (and
their order), totals and every sketch must come out the same with more
principals than a sketch holds, so evictions happen.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import RequestCostLedger
from repro.obs.accounting import CostVector

TOP_K = 4
PRINCIPALS = [f"p{i}" for i in range(3 * TOP_K)]
HOSTS = [f"h{i}" for i in range(2 * TOP_K)]
BOUND_IDS = range(40)


class ReferenceLedger(RequestCostLedger):
    """Books a hop the way the parent did."""

    def _reference_frame_key(self, frame):
        trace_ctx = frame.trace_ctx
        if trace_ctx is not None:
            key = self._bindings.get(trace_ctx.trace_id)
            if key is not None:
                return key
        return (frame.src_host, "-", "net", frame.channel)

    def _reference_charge_key(self, key, dim, n):
        if not n:
            return
        entry = self.entries.get(key)
        if entry is None:
            entry = self.entries[key] = CostVector()
        setattr(entry, dim, getattr(entry, dim) + n)  # CostVector.bump
        setattr(self.total, dim, getattr(self.total, dim) + n)
        sketch = self.sketches.get(dim)
        if sketch is not None:
            sketch.add(key[0], n)

    def account_frame_hop(self, frame, wan):
        self._reference_charge_key(self._reference_frame_key(frame),
                                   "wan_bytes" if wan else "lan_bytes",
                                   frame.size)


class FakeContext:
    def __init__(self, trace_id):
        self.trace_id = trace_id


class FakeFrame:
    def __init__(self, src_host, channel, size, trace_id):
        self.src_host, self.channel, self.size = src_host, channel, size
        self.trace_ctx = None if trace_id is None else FakeContext(trace_id)


def make(cls):
    ledger = cls(scope=lambda: None, events_fn=lambda: 0, top_k=TOP_K)
    for trace_id in BOUND_IDS:
        ledger.bind_trace(trace_id, (
            PRINCIPALS[trace_id % len(PRINCIPALS)], f"app{trace_id % 3}",
            "http" if trace_id % 2 else "orb", f"op{trace_id % 5}"))
    return ledger


def state(ledger):
    return {
        "entries": [(key, vec.as_dict())
                    for key, vec in ledger.entries.items()],
        "total": ledger.total.as_dict(),
        "sketches": {dim: sketch.top()
                     for dim, sketch in ledger.sketches.items()},
        "snapshot": ledger.snapshot(),
    }


frames = st.tuples(
    st.sampled_from(HOSTS),
    st.sampled_from(["main", "corba", "http"]),
    st.one_of(st.just(0), st.integers(1, 100_000)),  # zero-size: no entry
    # unstamped, bound to a request, or stamped by a trace nobody bound
    st.one_of(st.none(), st.sampled_from(BOUND_IDS), st.integers(1000, 1010)),
    st.booleans())


@settings(max_examples=80, deadline=None)
@given(st.lists(frames, min_size=1, max_size=200))
def test_hop_charges_match_the_reference(sequence):
    new, ref = make(RequestCostLedger), make(ReferenceLedger)
    for src_host, channel, size, trace_id, wan in sequence:
        for ledger in (new, ref):
            ledger.account_frame_hop(
                FakeFrame(src_host, channel, size, trace_id), wan)
    assert state(new) == state(ref)
    assert sum(v.wan_bytes + v.lan_bytes for v in new.entries.values()) == \
        new.total.wan_bytes + new.total.lan_bytes  # an exact partition


def test_more_principals_than_the_sketch_holds_evict_alike():
    new, ref = make(RequestCostLedger), make(ReferenceLedger)
    for i in range(400):
        frame = FakeFrame(HOSTS[i % len(HOSTS)], "main", 64 + (i * 37) % 500,
                          None if i % 3 else i % len(BOUND_IDS))
        for ledger in (new, ref):
            ledger.account_frame_hop(frame, wan=i % 4 == 0)
    assert state(new) == state(ref)
    assert len({key[0] for key in new.entries}) > TOP_K
    assert any(error for _p, _c, error in new.sketches["lan_bytes"].top())
