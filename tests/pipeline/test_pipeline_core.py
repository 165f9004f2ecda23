"""Property tests for the interceptor chain contract (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import Interceptor, Pipeline, RequestContext
from repro.pipeline.core import PLANE_HTTP


class Tracer(Interceptor):
    """Records every hook invocation into a shared log."""

    def __init__(self, label, log, raise_before=None, short_circuit=None,
                 absorb=False):
        self.label = label
        self.log = log
        self.raise_before = raise_before
        self.short_circuit = short_circuit
        self.absorb = absorb

    def before(self, ctx):
        self.log.append(("before", self.label))
        if self.raise_before is not None:
            raise self.raise_before
        if self.short_circuit is not None:
            ctx.response = self.short_circuit

    def after(self, ctx):
        self.log.append(("after", self.label))

    def on_error(self, ctx):
        self.log.append(("on_error", self.label))
        if self.absorb:
            ctx.response = "absorbed"
            ctx.error = None


def run(pipeline, handler, ctx=None):
    """Drive a non-yielding pipeline to completion synchronously."""
    ctx = ctx or RequestContext(PLANE_HTTP)
    gen = pipeline.execute(ctx, handler)
    try:
        next(gen)
    except StopIteration as stop:
        return ctx, stop.value
    raise AssertionError("plain-handler pipeline must not yield")


@settings(max_examples=60)
@given(n=st.integers(min_value=0, max_value=6))
def test_before_in_order_after_in_reverse(n):
    log = []
    chain = [Tracer(i, log) for i in range(n)]
    calls = []
    _, result = run(Pipeline(chain), lambda ctx: calls.append(1) or "ok")
    assert result == "ok"
    assert calls == [1]  # handler ran exactly once
    assert log[:n] == [("before", i) for i in range(n)]
    assert log[n:] == [("after", i) for i in reversed(range(n))]


@settings(max_examples=60)
@given(n=st.integers(min_value=1, max_value=6), data=st.data())
def test_raising_before_short_circuits(n, data):
    fail_at = data.draw(st.integers(min_value=0, max_value=n - 1))
    log = []
    boom = RuntimeError("rejected")
    chain = [Tracer(i, log,
                    raise_before=boom if i == fail_at else None)
             for i in range(n)]
    calls = []
    try:
        run(Pipeline(chain), lambda ctx: calls.append(1))
        raised = False
    except RuntimeError:
        raised = True
    assert raised  # unabsorbed error re-raises at the caller
    assert calls == []  # handler skipped
    # before hooks ran 0..fail_at, nothing later
    assert log[:fail_at + 1] == [("before", i) for i in range(fail_at + 1)]
    # unwind visits only the interceptors whose before completed, reversed
    assert log[fail_at + 1:] == [("on_error", i)
                                 for i in reversed(range(fail_at))]


@settings(max_examples=60)
@given(n=st.integers(min_value=1, max_value=6), data=st.data())
def test_response_short_circuit_skips_handler(n, data):
    hit = data.draw(st.integers(min_value=0, max_value=n - 1))
    log = []
    chain = [Tracer(i, log,
                    short_circuit="cached" if i == hit else None)
             for i in range(n)]
    calls = []
    ctx, result = run(Pipeline(chain), lambda ctx: calls.append(1))
    assert result == "cached"
    assert calls == []  # successful short-circuit: no handler
    # the short-circuiting interceptor itself still unwinds (it entered)
    assert log == ([("before", i) for i in range(hit + 1)]
                   + [("after", i) for i in reversed(range(hit + 1))])
    assert ctx.error is None


@settings(max_examples=60)
@given(n=st.integers(min_value=1, max_value=5), data=st.data())
def test_absorbed_error_looks_successful_to_outer_interceptors(n, data):
    absorber_at = data.draw(st.integers(min_value=0, max_value=n - 1))
    log = []
    chain = [Tracer(i, log, absorb=(i == absorber_at)) for i in range(n)]

    def handler(ctx):
        raise ValueError("handler blew up")

    ctx, result = run(Pipeline(chain), handler)
    assert result == "absorbed"
    assert ctx.error is None
    assert ctx.error_type == "ValueError"
    unwind = log[n:]
    # inner interceptors (after the absorber, unwound first) see the error;
    # the absorber clears it; outer ones see a completed request
    expected = ([("on_error", i)
                 for i in reversed(range(absorber_at, n))]
                + [("after", i) for i in reversed(range(absorber_at))])
    assert unwind == expected


def test_generator_handler_is_driven_and_unwound():
    log = []
    pipeline = Pipeline([Tracer("outer", log)])
    ctx = RequestContext(PLANE_HTTP)

    def handler(_ctx):
        yield "tick"
        return "done"

    gen = pipeline.execute(ctx, handler)
    assert next(gen) == "tick"  # the handler's events pass through
    try:
        gen.send(None)
        raise AssertionError("pipeline should have finished")
    except StopIteration as stop:
        assert stop.value == "done"
    assert log == [("before", "outer"), ("after", "outer")]


def test_clock_stamps_timings():
    now = {"t": 10.0}
    pipeline = Pipeline([], clock=lambda: now["t"])
    ctx = RequestContext(PLANE_HTTP)

    def handler(_ctx):
        yield "work"
        now["t"] = 12.5
        return "ok"

    gen = pipeline.execute(ctx, handler)
    next(gen)
    try:
        gen.send(None)
    except StopIteration:
        pass
    assert ctx.started_at == 10.0
    assert ctx.finished_at == 12.5
    assert ctx.elapsed == 2.5
