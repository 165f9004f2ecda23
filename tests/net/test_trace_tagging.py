"""Frame-level trace propagation: auto-stamping, hop spans, a trace's
traffic read off its hop spans (the replacement for the old
last_request_id hack)."""

from repro.net import Network
from repro.obs import Tracer
from repro.sim import Simulator


def make_net(wan=False):
    sim = Simulator()
    net = Network(sim)
    net.tracer = Tracer(sim)
    net.add_host("a")
    net.add_host("b")
    net.add_link("a", "b", latency=0.010, kind="wan" if wan else "lan")
    net.hosts["b"].bind(9)
    return sim, net


def test_frames_stamped_from_current_context_and_hop_span_recorded():
    sim, net = make_net(wan=True)
    tracer = net.tracer
    sent = {}

    def proc():
        with tracer.span("request", plane="client", server="a") as span:
            frame = net.send("a", 1, "b", 9, {"x": 1})
            sent["frame"] = frame
            sent["root"] = span
            yield sim.timeout(0.05)

    sim.spawn(proc())
    sim.run()
    frame, root = sent["frame"], sent["root"]
    # auto-stamped with the sender's active context
    assert frame.trace_ctx == root.context()
    (hop,) = [s for s in tracer.store.spans() if s.op == "net.hop"]
    assert hop.trace_id == root.trace_id
    assert hop.parent_id == root.span_id
    assert hop.server == "a->b"
    assert hop.attrs["wan"] is True
    assert hop.attrs["bytes"] == frame.size
    assert abs(hop.duration - 0.010) < 1e-9


def test_loopback_and_untraced_frames_record_no_hop_spans():
    sim, net = make_net()
    net.hosts["a"].bind(9)

    def proc():
        # no active span: frame goes out unstamped
        net.send("a", 1, "b", 9, {"x": 1})
        with net.tracer.span("request", plane="client", server="a"):
            net.send("a", 1, "a", 9, {"x": 2})  # loopback
            yield sim.timeout(0.05)

    sim.spawn(proc())
    sim.run()
    assert [s.op for s in net.tracer.store.spans()] == ["request"]


def test_per_trace_traffic_counters():
    sim, net = make_net()
    tracer = net.tracer
    ids = {}

    def proc():
        with tracer.span("request", plane="client", server="a") as span:
            ids["trace"] = span.trace_id
            f1 = net.send("a", 1, "b", 9, {"x": 1})
            f2 = net.send("a", 1, "b", 9, {"y": "longer payload"})
            ids["bytes"] = f1.size + f2.size
            yield sim.timeout(0.05)
        net.send("a", 1, "b", 9, {"z": 3})  # untraced
        yield sim.timeout(0.05)

    sim.spawn(proc())
    sim.run()
    # a trace's traffic is its hop spans: one per traced frame, its bytes
    hops = [s for s in tracer.store.spans()
            if s.op == "net.hop" and s.trace_id == ids["trace"]]
    assert len(hops) == 2
    assert sum(s.attrs["bytes"] for s in hops) == ids["bytes"]
    # the untraced frame is in the totals and in no trace
    assert net.trace.total.messages == 3
    assert len([s for s in tracer.store.spans() if s.op == "net.hop"]) == 2
