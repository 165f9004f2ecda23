"""The rewritten ``TrafficTrace.record`` against the one it replaced.

PR 19 made a hop resolve its link's counters once and add into five
counters without building a list.  The reference below is the parent's
``record``, verbatim; every view — and the order of every view's keys,
the per-trace LRU's included — must come out the same, across a
``reset()`` and past the LRU's 256 trace ids.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.trace import MAX_TRACE_IDS, LinkCounter, TrafficTrace


class ReferenceTrace(TrafficTrace):
    def record(self, link, frame):
        key = tuple(sorted(link.ends))
        counters = [self.per_link[key], self.per_kind[link.kind],
                    self.per_channel[frame.channel], self.total]
        if frame.trace_ctx is not None:
            counters.append(self._trace_counter(frame.trace_ctx.trace_id))
        for counter in counters:
            counter.messages += 1
            counter.bytes += frame.size


class FakeLink:
    def __init__(self, a, b, kind):
        self.ends, self.kind = (a, b), kind


class FakeContext:
    def __init__(self, trace_id):
        self.trace_id = trace_id


class FakeFrame:
    def __init__(self, channel, size, trace_id):
        self.channel, self.size = channel, size
        self.trace_ctx = None if trace_id is None else FakeContext(trace_id)


LINKS = [FakeLink("b", "a", "lan"), FakeLink("a", "c", "lan"),
         FakeLink("c", "d", "wan"), FakeLink("e", "d", "wan"),
         FakeLink("e", "f", "sat")]
N_IDS = MAX_TRACE_IDS + 60


def views(trace):
    """Every view a reader can take, keys in the order the trace holds
    them (read before ``snapshot()``, whose ``wan_*`` / ``lan_*``
    properties may add an empty kind)."""
    taken = {
        "per_link": list(trace.per_link.items()),
        "per_kind": list(trace.per_kind.items()),
        "per_channel": list(trace.per_channel.items()),
        "per_trace": list(trace.per_trace.items()),
        "for_trace": [trace.for_trace(i) for i in range(N_IDS)],
        "total": trace.total,
        "dropped": trace.dropped,
    }
    taken["snapshot"] = trace.snapshot()
    taken["per_kind_after_snapshot"] = list(trace.per_kind.items())
    return taken


hops = st.tuples(st.integers(0, len(LINKS) - 1),
                 st.sampled_from(["main", "command", "corba", "http"]),
                 st.integers(0, 5000),
                 st.one_of(st.none(), st.integers(0, N_IDS - 1)))


def sweep(order_seed):
    """One traced hop for every trace id, in a seeded order."""
    ids = list(range(N_IDS))
    ids = ids[order_seed % N_IDS:] + ids[:order_seed % N_IDS]
    return [(i % len(LINKS), "main", 64 + i, i) for i in ids]


@settings(max_examples=60, deadline=None)
@given(st.lists(hops, max_size=80), st.integers(0, 10_000),
       st.lists(hops, max_size=80), st.lists(hops, max_size=80),
       st.booleans())
def test_record_matches_the_reference(before, order_seed, between, after,
                                      sweep_again):
    new, ref = TrafficTrace(), ReferenceTrace()

    def play(sequence):
        for link, channel, size, trace_id in sequence:
            for trace in (new, ref):
                trace.record(LINKS[link], FakeFrame(channel, size, trace_id))

    play(before + sweep(order_seed) + between)
    assert len(new.per_trace) == MAX_TRACE_IDS  # the LRU did evict
    assert views(new) == views(ref)
    for trace in (new, ref):
        trace.record_dropped(FakeFrame("main", 99, None))
        trace.reset()
    assert views(new) == views(ref)
    play(after + (sweep(order_seed + 7) if sweep_again else []))
    assert views(new) == views(ref)


def test_after_257_ids_for_trace_reads_what_it_read():
    trace = TrafficTrace()
    for trace_id in range(MAX_TRACE_IDS + 1):
        trace.record(LINKS[0], FakeFrame("main", 100, trace_id))
    trace.record(LINKS[0], FakeFrame("main", 100, 1))  # 1 is now newest
    trace.record(LINKS[0], FakeFrame("main", 100, 999))  # evicts 2, not 1
    assert trace.for_trace(0) == LinkCounter()  # evicted by id 256
    assert trace.for_trace(1) == LinkCounter(2, 200)
    assert trace.for_trace(2) == LinkCounter()
    assert trace.for_trace(3) == LinkCounter(1, 100)
    assert list(trace.per_trace)[-2:] == [1, 999]


def test_record_reset_record_counts_from_zero_on_every_view():
    trace = TrafficTrace()
    for _ in range(3):
        trace.record(LINKS[0], FakeFrame("main", 100, 7))
        trace.record(LINKS[2], FakeFrame("corba", 50, None))
    trace.record_dropped(FakeFrame("main", 10, None))
    trace.reset()
    assert views(trace) == views(TrafficTrace())
    trace.record(LINKS[0], FakeFrame("main", 100, 7))
    trace.record(LINKS[2], FakeFrame("corba", 50, None))
    assert trace.per_link == {("a", "b"): LinkCounter(1, 100),
                              ("c", "d"): LinkCounter(1, 50)}
    assert trace.per_kind == {"lan": LinkCounter(1, 100),
                              "wan": LinkCounter(1, 50)}
    assert trace.per_channel == {"main": LinkCounter(1, 100),
                                 "corba": LinkCounter(1, 50)}
    assert trace.total == LinkCounter(2, 150)
    assert trace.dropped == LinkCounter()
    assert trace.for_trace(7) == LinkCounter(1, 100)
    assert trace.snapshot()["lan_bytes"] == 100
