"""Property: tracer-built trees respect virtual-time nesting invariants.

Random nested workloads driven through the ``tracer.span()`` context
manager on a monotonic clock must always yield trees where every child
starts no earlier than its parent, ends no later, inherits the trace id,
and points at its real parent span.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer

# a workload is a recursive tree: (advance-before, children, advance-inside)
workloads = st.recursive(
    st.tuples(st.floats(min_value=0.0, max_value=5.0,
                        allow_nan=False, allow_infinity=False),
              st.just(()),
              st.floats(min_value=0.0, max_value=5.0,
                        allow_nan=False, allow_infinity=False)),
    lambda children: st.tuples(
        st.floats(min_value=0.0, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
        st.lists(children, max_size=3).map(tuple),
        st.floats(min_value=0.0, max_value=5.0,
                  allow_nan=False, allow_infinity=False)),
    max_leaves=12)


def run_workload(tracer, clock, node, depth=0):
    advance_before, children, advance_inside = node
    clock["now"] += advance_before
    with tracer.span(f"op-d{depth}", plane="test",
                     server=f"srv{depth % 2}"):
        for child in children:
            run_workload(tracer, clock, child, depth + 1)
        clock["now"] += advance_inside


@settings(max_examples=60, deadline=None)
@given(workload=workloads)
def test_nesting_invariants(workload):
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"])
    run_workload(tracer, clock, workload)

    spans = tracer.store.spans()
    assert spans, "workload always produces at least the root span"
    by_id = {span.span_id: span for span in spans}
    roots = [span for span in spans if span.parent_id is None]
    assert len(roots) == 1
    (trace_id,) = {span.trace_id for span in spans}

    for span in spans:
        assert span.end is not None
        assert span.start <= span.end
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        # child virtual window nests inside the parent's
        assert parent.start <= span.start
        assert span.end <= parent.end
        assert span.trace_id == parent.trace_id == trace_id

    # the reconstructed tree has one root and every span appears once
    (tree,) = tracer.store.tree(trace_id)
    walked = [node.span.span_id for _depth, node in tree.walk()]
    assert sorted(walked) == sorted(by_id)

    # critical-path segments tile the root span exactly
    root = roots[0]
    path = tracer.store.critical_path(trace_id)
    if root.duration > 0:
        assert abs(sum(seg.duration for seg in path)
                   - root.duration) < 1e-9
        assert path[0].start == root.start
        assert path[-1].end == root.end
        for a, b in zip(path, path[1:]):
            assert abs(a.end - b.start) < 1e-9
