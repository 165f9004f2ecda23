"""Tracer unit behaviour: minting, sampling, scopes, error capture."""

import pytest

from repro.obs import SAMPLE_OFF, Tracer
from repro.obs.tracer import Standalone
from repro.sim import Simulator


def make_tracer(**kwargs):
    clock = {"now": 0.0}
    tracer = Tracer(clock=lambda: clock["now"], **kwargs)
    return tracer, clock


def test_span_lifecycle_records_virtual_times():
    tracer, clock = make_tracer()
    token = tracer.enter("op", plane="http", server="s1")
    span = token[0]
    assert tracer.current_span() is span
    clock["now"] = 1.5
    tracer.finish(span, token=token)
    assert tracer.current_span() is None
    assert span.start == 0.0
    assert span.end == 1.5
    assert span.duration == 1.5
    assert span.status == "ok"
    assert tracer.store.spans() == [span]


def test_ids_are_unique_and_children_inherit_trace_id():
    tracer, _clock = make_tracer()
    token = tracer.enter("root")
    root = token[0]
    with tracer.span("child") as child:
        pass
    tracer.finish(root, token=token)
    assert child.trace_id == root.trace_id
    assert child.parent_id == root.span_id
    assert child.span_id != root.span_id
    with tracer.span("other-root") as other:
        assert other.parent_id is None
    assert other.trace_id != root.trace_id


def test_explicit_parent_context_beats_current_span():
    tracer, _clock = make_tracer()
    with tracer.span("a") as a:
        pass
    with tracer.span("b") as b:
        with tracer.span("child", parent=a.context()) as child:
            pass
    assert child.trace_id == a.trace_id != b.trace_id
    assert child.parent_id == a.span_id


def test_sampling_off_is_a_noop():
    tracer, _clock = make_tracer(sampling=SAMPLE_OFF)
    token = tracer.enter("op")
    assert token is None
    # every API tolerates the sampled-out None
    tracer.annotate(None, key="value")
    tracer.finish(None, token=token)
    assert tracer.current_span() is None
    assert tracer.current_context() is None
    with tracer.span("ctx") as s:
        assert s is None
    assert len(tracer.store) == 0
    assert not tracer.enabled


def test_invalid_sampling_rejected():
    with pytest.raises(ValueError):
        Tracer(clock=lambda: 0.0, sampling=0)
    with pytest.raises(ValueError):
        Tracer(clock=lambda: 0.0, sampling=3)
    with pytest.raises(ValueError):
        Tracer(clock=lambda: 0.0, sampling="sometimes")


def test_span_context_manager_captures_errors():
    tracer, _clock = make_tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("kaput")
    (span,) = tracer.store.spans()
    assert span.status == "error"
    assert "kaput" in span.error
    # the active stack unwound despite the error
    assert tracer.current_span() is None


def test_per_process_stacks_do_not_leak_context():
    scopes = {"current": Standalone()}  # a carrier: anything with the slot
    tracer = Tracer(clock=lambda: 0.0, scope=lambda: scopes["current"])
    a = tracer.enter("a")[0]
    scopes["current"] = Standalone()
    assert tracer.current_span() is None
    b = tracer.enter("b")[0]
    assert b.parent_id is None
    assert b.trace_id != a.trace_id


def test_record_span_requires_parent_context():
    tracer, _clock = make_tracer()
    assert tracer.record_span("hop", 0.0, 1.0, parent=None) is None
    root = tracer.enter("root")[0]
    assert tracer.record_span("hop", 0.0, 1.0, parent=root.context(),
                              plane="net") is None  # a row, no span built
    (hop,) = tracer.store.spans()
    assert hop.trace_id == root.trace_id
    assert hop.parent_id == root.span_id
    assert hop.end == 1.0


def test_simulator_clock_and_scope_integration():
    sim = Simulator()
    tracer = Tracer(sim)
    seen = {}

    def proc():
        token = tracer.enter("step")
        yield sim.timeout(2.5)
        assert tracer.current_span() is token[0]
        tracer.finish(token[0], token=token)
        seen["span"] = token[0]

    sim.spawn(proc())
    sim.run()
    assert seen["span"].start == 0.0
    assert seen["span"].end == 2.5
