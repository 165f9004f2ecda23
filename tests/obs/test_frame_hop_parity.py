"""``RequestCostLedger.account_frame_hop`` against the path it replaced.

The parent booked a hop as ``_charge_key(_frame_key(frame), dim, size)``:
a key, an early return for a zero amount, an entry made on demand and two
``getattr``/``setattr`` bumps.  PR 19 writes the fields directly.  The
composition is copied here as the reference; entries (and their order),
totals and the snapshot read from them must come out the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import RequestCostLedger
from repro.obs.accounting import CostVector

PRINCIPALS = [f"p{i}" for i in range(12)]
HOSTS = [f"h{i}" for i in range(8)]
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
    ledger = cls(scope=lambda: None, events_fn=lambda: 0)
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

