"""SpanStore analysis (trees, critical path, bounding) and exporters."""

import json

from repro.obs import (
    Tracer,
    export_chrome,
    export_jsonl,
    load_jsonl,
    to_chrome_trace,
    tree_signature,
)


def make_clock_tracer():
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"])
    return tracer, clock


def last_span(tracer):
    """The span recorded last (``record_span`` builds none to return)."""
    return tracer.store.spans()[-1]


def test_tree_reconstruction_orders_children_by_start():
    tracer, clock = make_clock_tracer()
    with tracer.span("root") as root:
        tracer.record_span("B", 6.0, 9.0, parent=root.context())
        b = last_span(tracer)
        tracer.record_span("A", 1.0, 4.0, parent=root.context())
        tracer.record_span("g", 6.5, 8.5, parent=b.context())
        clock["now"] = 10.0

    (tree,) = tracer.store.tree(root.trace_id)
    assert tree.span.op == "root"
    assert [c.span.op for c in tree.children] == ["A", "B"]
    assert [c.span.op for c in tree.children[1].children] == ["g"]
    walked = [(depth, node.span.op) for depth, node in tree.walk()]
    assert walked == [(0, "root"), (1, "A"), (1, "B"), (2, "g")]


def test_critical_path_attributes_gaps_to_parent():
    tracer, clock = make_clock_tracer()
    with tracer.span("root") as root:
        tracer.record_span("A", 1.0, 4.0, parent=root.context())
        tracer.record_span("B", 6.0, 9.0, parent=root.context())
        b = last_span(tracer)
        tracer.record_span("g", 6.5, 8.5, parent=b.context())
        clock["now"] = 10.0

    path = tracer.store.critical_path(root.trace_id)
    assert [(seg.span.op, seg.start, seg.end) for seg in path] == [
        ("root", 0.0, 1.0),
        ("A", 1.0, 4.0),
        ("root", 4.0, 6.0),
        ("B", 6.0, 6.5),
        ("g", 6.5, 8.5),
        ("B", 8.5, 9.0),
        ("root", 9.0, 10.0),
    ]
    # segments tile the root's duration exactly
    assert sum(seg.duration for seg in path) == root.duration


def test_trace_of_root_and_servers():
    tracer, clock = make_clock_tracer()
    with tracer.span("portal.command", server="client0") as root:
        tracer.record_span("hop", 0.0, 1.0, parent=root.context(),
                           server="client0->s1")
    store = tracer.store
    assert store.trace_of_root("portal.command") == root.trace_id
    assert store.trace_of_root("hop") is None  # not a root op
    assert store.servers(root.trace_id) == ["client0", "client0->s1"]


def test_store_bounds_spans_and_counts_drops():
    tracer = Tracer(clock=lambda: 0.0, max_spans=3)
    for i in range(5):
        with tracer.span(f"op-{i}"):
            pass
    assert len(tracer.store) == 3
    assert tracer.store.dropped == 2
    assert tracer.store.snapshot()["dropped"] == 2


def test_jsonl_round_trip_preserves_the_tree(tmp_path):
    tracer, clock = make_clock_tracer()
    with tracer.span("root", plane="http", server="s1",
                     attrs={"request_id": 7}) as root:
        tracer.record_span("B", 6.0, 9.0, parent=root.context(),
                           plane="orb", server="s2")
        b = last_span(tracer)
        tracer.record_span("g", 6.5, 8.5, parent=b.context(), plane="proxy",
                           server="s2", attrs={"wan": True})
        clock["now"] = 10.0

    path = tmp_path / "trace.jsonl"
    assert export_jsonl(tracer.store, str(path)) == 3
    loaded = load_jsonl(str(path))
    assert len(loaded) == 3
    assert (tree_signature(loaded, root.trace_id)
            == tree_signature(tracer.store, root.trace_id))
    # attrs survive the round trip too
    (g,) = [s for s in loaded.spans() if s.op == "g"]
    assert g.attrs == {"wan": True}


def test_chrome_trace_layout(tmp_path):
    tracer, clock = make_clock_tracer()
    with tracer.span("root", plane="http", server="s1") as root:
        tracer.record_span("B", 0.25, 0.75, parent=root.context(),
                           plane="orb", server="s2")
        clock["now"] = 1.0

    doc = to_chrome_trace(tracer.store)
    events = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
    assert {ev["name"] for ev in events} == {"root", "B"}
    assert {m["args"]["name"] for m in meta} == {"s1", "s2"}
    # virtual seconds → microseconds
    (b,) = [ev for ev in events if ev["name"] == "B"]
    assert b["ts"] == 0.25e6 and b["dur"] == 0.5e6
    # distinct pids per server; one tid per trace
    assert len({ev["pid"] for ev in events}) == 2
    assert {ev["tid"] for ev in events} == {root.trace_id}

    path = tmp_path / "chrome.json"
    assert export_chrome(tracer.store, str(path)) == 2
    json.loads(path.read_text())  # valid JSON document
