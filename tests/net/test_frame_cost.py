"""What one frame costs the host, as exact counts — no timing (in the
spirit of tests/sim/test_event_budget.py and tests/obs/test_recording_cost.py).

Every operation of every workload sizes a payload, builds a ``Frame``,
walks a route, counts the hop and hands the frame off.  Since PR 19 a
frozen size is one weak reference (no finalizer object), a span hands out
one context, a hop is one traffic-trace call (which makes the hop's one
ledger charge) and one ``net.hop`` span, and a tracer that samples
nothing is not asked at all.
The counts below are the budget; the parent's are in the comments.
"""

import cProfile
import gc
import pstats
import weakref
from collections import Counter

from repro import build_collaboratory
from repro.bench.fleet import build_fleet
from repro.bench.workload import make_app_farm
from repro.net import Network
from repro.obs import RequestCostLedger, Tracer
from repro.obs import span as span_module
from repro.sim import Simulator
from repro.wire import ControlMessage, serialize, set_object_walk_hook
from tests.conftest import polling_miniature

N = 40


def traced_line(*hosts, latency=0.001):
    """Hosts joined in a line of LAN links, a tracer and a ledger attached
    the way ``build_collaboratory`` attaches them, and a receiver parked
    on the last host's port 1 that keeps every frame it gets."""
    sim = Simulator()
    net = Network(sim)
    for name in hosts:
        net.add_host(name)
    for a, b in zip(hosts, hosts[1:]):
        net.add_link(a, b, latency=latency, bandwidth=1e6)
    tracer = Tracer(sim)
    ledger = RequestCostLedger(sim)
    net.tracer = tracer
    net.trace.ledger = tracer.ledger = ledger
    sender = net.hosts[hosts[0]].bind(1)
    receiver = net.hosts[hosts[-1]].bind(1)
    got = []

    def drain():
        while True:
            got.append((yield receiver.recv()))

    sim.spawn(drain())
    sim.run()  # the receiver boots and parks on its first recv()
    return sim, net, sender, got


def fresh_messages(n=N):
    return [ControlMessage("evt", detail={"i": i, "text": "x" * (i % 7)},
                           sender="a", destination="b", msg_id=i + 1)
            for i in range(n)]


# -- the size memo ----------------------------------------------------------------

def test_no_finalizer_per_message(monkeypatch):
    made = []

    class CountedFinalize(weakref.finalize):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(weakref, "finalize", CountedFinalize)
    sim, _net, sender, got = traced_line("a", "b")
    for msg in fresh_messages():
        sender.send("b", 1, msg)
    sim.run()
    assert len(got) == N
    assert made == []  # parent: N, one finalizer object per message


def test_memo_is_empty_once_the_messages_are_dead():
    sim, _net, sender, got = traced_line("a", "b")
    gc.collect()  # other tests' garbage must not die in the middle
    before = len(serialize._FROZEN_SIZES)
    msgs = fresh_messages()
    for msg in msgs:
        sender.send("b", 1, msg)
    sim.run()
    ids = [id(msg) for msg in msgs]
    assert all(key in serialize._FROZEN_SIZES for key in ids)
    assert len(serialize._FROZEN_SIZES) == before + N
    del msgs, msg
    got.clear()  # the last references; no gc.collect() from here on
    assert not any(key in serialize._FROZEN_SIZES for key in ids)
    assert len(serialize._FROZEN_SIZES) == before


def test_each_message_is_walked_exactly_once():
    walks = Counter()
    previous = set_object_walk_hook(lambda obj: walks.update([id(obj)]))
    try:
        sim, net, sender, got = traced_line("a", "b")
        msgs = fresh_messages()
        for msg in msgs:
            sender.send("b", 1, msg)
        # a fan-out re-send and a loopback copy ride on the frozen size
        frames = [sender.send("b", 1, msgs[0]), sender.send("a", 1, msgs[0])]
        sim.run()
    finally:
        set_object_walk_hook(previous)
    assert len(got) == N + 1
    assert [walks[id(msg)] for msg in msgs] == [1] * N
    assert sum(walks.values()) == N
    assert {f.size for f in frames} == {got[0].size}


# -- trace contexts ------------------------------------------------------------------

def test_a_span_builds_one_context_however_often_it_is_read(monkeypatch):
    live = []

    class CountedContext(span_module.TraceContext):
        __slots__ = ()
        built = 0

        def __init__(self, trace_id, span_id):
            CountedContext.built += 1
            super().__init__(trace_id, span_id)

    monkeypatch.setattr(span_module, "TraceContext", CountedContext)
    sim, net, sender, got = traced_line("a", "b")
    tracer = net.tracer

    def request(msg):
        # a dispatched request: the interceptor reads the context once,
        # then every frame the handler sends asks for it again
        with tracer.span("request", plane="test", server="a") as span:
            live.append(tracer.context_of(span))
            sender.send("b", 1, msg)
            sender.send("b", 1, msg)
            yield sim.timeout(0.01)

    for msg in fresh_messages():
        sim.spawn(request(msg))
    sim.run()
    frames = len(got)
    assert frames == 2 * N
    # one per span, so at most one per traced frame; parent: 3 per span
    assert CountedContext.built == N <= frames
    assert all(frame.trace_ctx is ctx
               for ctx, pair in zip(live, zip(got[::2], got[1::2]))
               for frame in pair)
    # a finished, stored span lets go of its context
    assert all(span._context is None for span in tracer.store.spans())


# -- the hop's bookkeepers ----------------------------------------------------------

def spy_on_bookkeepers(net, log):
    """Instance-level wrappers that note each bookkeeper's call; the
    ledger's is made from inside the trace's."""
    record, hop = net.trace.record, net.trace.ledger.account_frame_hop
    record_span = net.tracer.record_span

    def spy_record(link, frame):
        log.append(("trace", frame.frame_id))
        record(link, frame)

    def spy_hop(frame, wan):
        log.append(("ledger", frame.frame_id))
        hop(frame, wan)

    def spy_span(op, start, end, **kwargs):
        log.append((op, kwargs["parent"]))
        return record_span(op, start, end, **kwargs)

    net.trace.record = spy_record
    net.trace.ledger.account_frame_hop = spy_hop
    net.tracer.record_span = spy_span


def test_a_hop_is_one_trace_update_one_ledger_charge_one_span_in_order():
    sim, net, sender, got = traced_line("a", "b")
    log = []
    spy_on_bookkeepers(net, log)
    sent = []

    def request(msg):
        with net.tracer.span("request", plane="test", server="a"):
            sent.append(sender.send("b", 1, msg))
        yield sim.timeout(0.0)

    for msg in fresh_messages(5):
        sim.spawn(request(msg))
    sim.run()
    untraced = sender.send("b", 1, {"plain": True})
    sim.run()
    assert [f.frame_id for f in got] == [f.frame_id for f in sent] + [
        untraced.frame_id]  # arrival order is sending order
    expected = []
    for frame in sent:
        expected += [("trace", frame.frame_id), ("ledger", frame.frame_id),
                     ("net.hop", frame.trace_ctx)]
    # a frame nobody traces has no span to record
    expected += [("trace", untraced.frame_id), ("ledger", untraced.frame_id)]
    assert log == expected
    hops = [s for s in net.tracer.store.spans() if s.op == "net.hop"]
    assert [(s.server, s.plane, s.attrs) for s in hops] == [
        ("a->b", "net", {"wan": False, "channel": "main", "bytes": f.size})
        for f in sent]


def test_two_hops_are_counted_twice_and_spanned_once():
    sim, net, sender, got = traced_line("a", "m", "b")
    log = []
    spy_on_bookkeepers(net, log)

    def request():
        with net.tracer.span("request", plane="test", server="a"):
            sender.send("b", 1, ControlMessage("evt", msg_id=1))
        yield sim.timeout(0.0)

    sim.spawn(request())
    sim.run()
    (frame,) = got
    step = [("trace", frame.frame_id), ("ledger", frame.frame_id)]
    assert log == step + step + [("net.hop", frame.trace_ctx)]
    assert net.trace.total.messages == 2
    assert net.trace.ledger.total.lan_bytes == 2 * frame.size


# -- a tracer that is off is not asked -------------------------------------------------

def test_a_tracer_that_samples_nothing_is_not_attached(monkeypatch):
    asked = Counter()
    for name in ("current_context", "current_span", "record_span"):
        plain = getattr(Tracer, name)

        def counting(self, *args, _name=name, _plain=plain, **kwargs):
            asked[_name] += 1
            return _plain(self, *args, **kwargs)

        monkeypatch.setattr(Tracer, name, counting)
    collab = build_collaboratory(1, trace_sampling="off")
    assert collab.net.tracer is None and not collab.tracer.enabled
    collab.run_bootstrap()
    make_app_farm(collab, 1, user="bench")
    collab.sim.run(until=collab.sim.now + 2.0)
    assert collab.net.trace.total.messages > 0
    assert asked == Counter()  # parent: current_context + current_span per frame
    on = build_collaboratory(1)
    assert on.net.tracer is on.tracer


# -- frame ids ----------------------------------------------------------------------

def test_two_fleets_in_one_process_number_their_frames_alike():
    """A ``Frame`` takes its id from the fleet's own simulator, so a second
    fleet built in the same process numbers its frames as the first did."""
    def first_frames():
        fleet = build_fleet(2, directory_shards=1, directory_replicas=1)
        fleet.net.hosts["s1"].bind(1)
        frames = [fleet.net.send("s0", 1, "s1", 1, {"n": n})
                  for n in range(3)]
        fleet.sim.run(until=fleet.sim.now + 1.0)
        fleet.stop()
        return [(f.frame_id, f.size, f.delivered_at) for f in frames]

    first = first_frames()
    assert [frame_id for frame_id, _size, _at in first] == [
        first[0][0], first[0][0] + 1, first[0][0] + 2]
    assert first_frames() == first


# -- an E2-shaped miniature -------------------------------------------------------------

POLLS = 57
#: calls into Python functions of repro.wire + repro.net + repro.obs over
#: the whole run below, counted by cProfile (PR 19: 10 947, its parent
#: 12 628; PR 21 took the ledger's sketch updates out: 10 200.  Route
#: resolution is inside the window: PR 22's ``Network._shortest`` hands
#: back the ``Link`` tuple itself, one call where a generator expression
#: and a ``link_between`` per hop turned networkx's host path into links —
#: two calls fewer for each of the miniature's ten one-hop routes: 10 180.
#: Set-up is inside the window too: PR 23's ``default_pipeline`` asks
#: ``Tracer.enabled`` once per chain it builds — the server's three planes
#: and the registry ORB, four calls, none per request.  PR 24 carries a
#: request's scope on its process — 1 807 calls fewer: the ledger's
#: ``scope`` / ``events`` lambdas 666 and the tracer's ``clock`` / ``scope``
#: lambdas 590, all gone; ``activate`` + ``deactivate`` 121 each, folded
#: into ``Tracer.enter`` (121, where ``start_span`` was) and ``finish``;
#: ``current_context`` 115, which a span without an explicit parent no
#: longer calls; and ``_charge_key`` 194, because each of the 194 spans
#: minted is charged by ``charge_span`` in ``charge``'s place: 8 377.
#: The SLO engine sums each distinct window once per tick now — the
#: default pairs' 5 s window is both the page pair's long and the ticket
#: pair's short one — so each of the 16 heartbeats asks the registry's
#: ``window_sum`` two times fewer per spec, 64 calls, and the series'
#: own ``window_sum`` 30 times fewer over the run (a series no tick has
#: written yet is not asked): 8 283.  The traffic trace keeps no per-trace
#: table any more — a trace's bytes are its ``net.hop`` spans — so each of
#: the 73 traced hops makes one ``TrafficTrace._trace_counter`` call fewer:
#: 8 210.  The SLO engine keeps its windows in its own samples, not in
#: ``slo.*`` series of the registry — 406 calls fewer: the registry's
#: ``window_sum`` 192 (16 heartbeats × 2 specs × 3 windows × 2 series) and
#: the series' own 90; the 30 increments the ticks wrote, each a registry
#: ``inc``, ``_get``, series ``inc`` and ``_open``, 120; and the two series
#: they created, a ``TimeSeries.__init__`` and its tier list each, 4: 7 804.
#: A request is one latency point, not also a ``pipeline.requests.<plane>``
#: increment — 392 calls fewer for the miniature's 112 requests: the
#: registry's and the series' ``inc`` 224, the registry's ``_get`` 112,
#: the 52 buckets those series opened (``_open``) and the two series
#: themselves, a ``TimeSeries.__init__`` and its tier list each, 4: 7 412.
#: The HTTP container, the HTTP clients and the ORBs bind handler ports,
#: so no listener loop calls ``Endpoint.recv`` — 138 calls fewer, one per
#: frame the six loops took (132) and one each to start (6) — and no
#: loop's locals hold the last frame it took until the run's end, so six
#: more frozen payloads die inside the window, six ``_thaw`` calls: 7 280.
#: A WAL append takes no host time reading into a histogram any more —
#: 158 calls fewer for the miniature's 24 appends: the registry's and the
#: series' ``observe`` 48, the registry's ``_get`` 24, ``LogHistogram.add``
#: and its ``bucket_index`` 24 each, the 18 buckets the series opened
#: (``_open`` and a ``LogHistogram.__init__`` each) 36, and the series
#: itself, a ``TimeSeries.__init__`` and its tier list, 2: 7 122.
#: A series is one ring, not a list of tiers — the tier list each of the
#: miniature's four series built, 4 calls — and the traffic trace keeps
#: no per-link counter, whose key read ``Link.ends`` once for each of the
#: five links the miniature's frames crossed, 5 calls: 7 113.  The span
#: store keeps a finished span as a row of columns: each of the 73 traced
#: hops is written straight into the store, its ``Span.__init__`` gone,
#: 73 calls: 7 040)
FRAME_PATH_CALLS = 7_040


def test_client_polling_miniature_frame_path_calls():
    """One server, one application, three portals polling for five
    simulated seconds (the miniature tests/sim/test_event_budget.py
    counts events on): how many calls the frame path's three packages
    took, pinned."""
    profiler = cProfile.Profile()
    gc.collect()
    gc.disable()  # a weak reference's callback is a counted call too
    try:
        profiler.enable()
        _collab, recorder = polling_miniature()
        profiler.disable()
    finally:
        gc.enable()
    assert recorder.stats("poll_rtt").count == POLLS
    calls = sum(
        row[1] for (filename, _line, _name), row
        in pstats.Stats(profiler).stats.items()
        if any(f"/repro/{package}/" in filename
               for package in ("wire", "net", "obs")))
    assert calls == FRAME_PATH_CALLS
