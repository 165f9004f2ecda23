"""The rewritten ``TrafficTrace.record`` against the one it replaced.

``record`` resolves a hop's link counters once and adds into them
without building a list.  The reference below is the ``record`` that
built one; every view — and the order of every view's keys — must come
out the same, across a ``reset()``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.trace import LinkCounter, TrafficTrace


class ReferenceTrace(TrafficTrace):
    def record(self, link, frame):
        counters = [self.per_kind[link.kind],
                    self.per_channel[frame.channel], self.total]
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


def views(trace):
    """Every view a reader can take, keys in the order the trace holds
    them (read before ``snapshot()``, whose ``wan_*`` / ``lan_*``
    properties may add an empty kind)."""
    taken = {
        "per_kind": list(trace.per_kind.items()),
        "per_channel": list(trace.per_channel.items()),
        "total": trace.total,
        "dropped": trace.dropped,
    }
    taken["snapshot"] = trace.snapshot()
    taken["per_kind_after_snapshot"] = list(trace.per_kind.items())
    return taken


hops = st.tuples(st.integers(0, len(LINKS) - 1),
                 st.sampled_from(["main", "command", "corba", "http"]),
                 st.integers(0, 5000),
                 st.one_of(st.none(), st.integers(0, 300)))


@settings(max_examples=60, deadline=None)
@given(st.lists(hops, max_size=80), st.lists(hops, max_size=80))
def test_record_matches_the_reference(before, after):
    new, ref = TrafficTrace(), ReferenceTrace()

    def play(sequence):
        for link, channel, size, trace_id in sequence:
            for trace in (new, ref):
                trace.record(LINKS[link], FakeFrame(channel, size, trace_id))

    play(before)
    assert views(new) == views(ref)
    for trace in (new, ref):
        trace.record_dropped(FakeFrame("main", 99, None))
        trace.reset()
    assert views(new) == views(ref)
    play(after)
    assert views(new) == views(ref)


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
    assert trace.per_kind == {"lan": LinkCounter(1, 100),
                              "wan": LinkCounter(1, 50)}
    assert trace.per_channel == {"main": LinkCounter(1, 100),
                                 "corba": LinkCounter(1, 50)}
    assert trace.total == LinkCounter(2, 150)
    assert trace.dropped == LinkCounter()
    assert trace.snapshot()["lan_bytes"] == 100
