"""Property: a scope that rides on its process behaves as the per-process
stacks did.

Until PR 24 the tracer and the ledger each kept a dict of stacks keyed by
``sim.active_process``; now the innermost open scope is two slots on the
process itself (the simulator's own for "no process"), saved in the token
on the way in and put back on the way out.  :class:`StackModel` is the old
bookkeeping, kept here as the oracle: whatever order requests, spans and
background scopes open and close in, on whichever process, both agree on
the current span, the span of every other process, and the entry a charge
lands on.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.obs import RecordingInterceptor, RequestCostLedger, Tracer
from repro.pipeline.core import PLANE_HTTP, RequestContext
from repro.sim import Simulator

PRINCIPALS = ("alice", "bob")
OPERATIONS = ("/collab/poll", "/command/submit")
MAX_PROCESSES = 6
NO_SCOPE_SPAN = ("-", "-", "obs", "span")
NO_SCOPE_APPEND = ("-", "-", "storage", "append")


class StackModel:
    """The dict-of-stacks path ``Tracer._active`` / ``RequestCostLedger.
    _active`` were: one stack per scope key, made on the first push and
    deleted with the last pop."""

    def __init__(self):
        self.active = {}

    def push(self, scope_key, item):
        self.active.setdefault(scope_key, []).append(item)

    def pop(self, scope_key, item):
        stack = self.active[scope_key]
        assert stack[-1] is item
        stack.pop()
        if not stack:
            del self.active[scope_key]

    def top(self, scope_key):
        stack = self.active.get(scope_key)
        return stack[-1] if stack else None


def idle():
    yield  # pragma: no cover - never resumed: only a scope key here


class ScopeMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.tracer = Tracer(self.sim)
        self.ledger = RequestCostLedger(self.sim)
        self.tracer.ledger = self.ledger
        self.recording = RecordingInterceptor(
            tracer=self.tracer, ledger=self.ledger, server="s")
        self.processes = [self.sim.spawn(idle()) for _ in range(3)]
        self.spans, self.keys = StackModel(), StackModel()
        #: process (or None) -> the closers of what it opened, innermost last
        self.opened = {}
        #: rollup key -> {dimension: units} the oracle expects booked
        self.expected = {}

    # -- the oracle's side of each step ----------------------------------------
    @property
    def current(self):
        return self.sim.active_process

    def book(self, key, dim):
        dims = self.expected.setdefault(key, {})
        dims[dim] = dims.get(dim, 0) + 1

    def span_opened(self, span):
        """A span was minted under the current scope, then made current."""
        assert span.parent_id == getattr(self.spans.top(self.current),
                                         "span_id", None)
        self.book(self.keys.top(self.current) or NO_SCOPE_SPAN, "spans")
        self.spans.push(self.current, span)

    def opener(self, closer):
        self.opened.setdefault(self.current, []).append(closer)

    # -- rules ----------------------------------------------------------------------
    @rule(index=st.integers(min_value=-1, max_value=MAX_PROCESSES - 1))
    def switch(self, index):
        """Another process runs (-1: kernel callbacks, no process)."""
        self.sim.active_process = (
            None if index < 0
            else self.processes[index % len(self.processes)])

    @precondition(lambda self: len(self.processes) < MAX_PROCESSES)
    @rule()
    def spawn_child(self):
        """A child spawned mid-scope starts with no scope of its own: a
        span crosses processes on a frame or a GIOP slot, never by birth."""
        child = self.sim.spawn(idle())
        self.processes.append(child)
        assert self.tracer.active_span_of(child) is None

    @rule(principal=st.sampled_from(PRINCIPALS),
          operation=st.sampled_from(OPERATIONS))
    def open_request(self, principal, operation):
        ctx = RequestContext(PLANE_HTTP, principal=principal,
                             operation=operation)
        self.recording.before(ctx)
        self.span_opened(ctx.span)
        key = (principal, "-", PLANE_HTTP, operation)
        self.keys.push(self.current, key)
        owner = self.current

        def close():
            self.recording.after(ctx)
            self.spans.pop(owner, ctx.span)
            self.keys.pop(owner, key)
            self.book(key, "requests")
        self.opener(close)

    @rule()
    def enter_span(self):
        token = self.tracer.enter("step", plane="test")
        span = token[0]
        self.span_opened(span)
        owner = self.current

        def close():
            self.tracer.finish(span, token=token)
            self.spans.pop(owner, span)
        self.opener(close)

    @rule(principal=st.sampled_from(PRINCIPALS))
    def enter_scoped(self, principal):
        manager = self.ledger.scoped(principal, plane="federation",
                                     operation="poll_round")
        key = manager.__enter__()
        assert key == (principal, "-", "federation", "poll_round")
        self.keys.push(self.current, key)
        owner = self.current

        def close():
            manager.__exit__(None, None, None)
            self.keys.pop(owner, key)
        self.opener(close)

    @precondition(lambda self: self.opened.get(self.current))
    @rule()
    def close_innermost(self):
        self.opened[self.current].pop()()

    @rule()
    def charge(self):
        """A charge made while handling (a WAL append) lands on the entry
        of the innermost open scope, or on the fallback key."""
        self.ledger.charge("wal_appends", 1, plane="storage",
                           operation="append")
        self.book(self.keys.top(self.current) or NO_SCOPE_APPEND,
                  "wal_appends")

    # -- what must agree after every step ------------------------------------------
    @invariant()
    def the_current_span_is_the_stack_top(self):
        top = self.spans.top(self.current)
        assert self.tracer.current_span() is top
        context = self.tracer.current_context()
        if top is None:
            assert context is None
        else:
            assert ((context.trace_id, context.span_id)
                    == (top.trace_id, top.span_id))

    @invariant()
    def every_process_shows_its_own_span(self):
        for process in [None, *self.processes]:
            assert (self.tracer.active_span_of(process)
                    is self.spans.top(process))

    @invariant()
    def every_charge_landed_where_the_stacks_say(self):
        booked = {key: {dim: n for dim, n in vec.as_dict().items()
                        if n and dim in ("requests", "spans", "wal_appends")}
                  for key, vec in self.ledger.entries.items()}
        assert booked == self.expected
        assert self.ledger.total.spans == sum(
            dims.get("spans", 0) for dims in self.expected.values())

    def teardown(self):
        """Unwinding everything leaves no scope anywhere."""
        for process, closers in self.opened.items():
            self.sim.active_process = process
            while closers:
                closers.pop()()
        self.sim.active_process = None
        assert self.spans.active == {} and self.keys.active == {}
        for process in [None, *self.processes]:
            assert self.tracer.active_span_of(process) is None
        before = dict(self.ledger.total.as_dict())
        self.ledger.charge("wal_appends", 1, plane="storage",
                           operation="append")
        assert (self.ledger.entries[NO_SCOPE_APPEND].wal_appends
                == self.expected.get(NO_SCOPE_APPEND, {}).get(
                    "wal_appends", 0) + 1)
        assert self.ledger.total.wal_appends == before["wal_appends"] + 1


ScopeMachine.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None)
TestScopeRidesOnItsProcess = ScopeMachine.TestCase


# -- closing out of order is a programming error: it raises -----------------------

def traced():
    sim = Simulator()
    tracer = Tracer(sim)
    ledger = tracer.ledger = RequestCostLedger(sim)
    return tracer, ledger


def test_finishing_an_outer_span_first_raises_and_moves_nothing():
    tracer, _ledger = traced()
    outer = tracer.enter("outer")
    inner = tracer.enter("inner")
    with pytest.raises(AssertionError, match="out of order"):
        tracer.finish(outer[0], token=outer)
    with pytest.raises(AssertionError, match="out of order"):
        tracer.finish(outer[0], error="late", token=outer)
    assert tracer.current_span() is inner[0]
    assert len(tracer.store) == 0 and outer[0].end is None
    assert outer[0].status == "ok" and not outer[0].error
    tracer.finish(inner[0], token=inner)
    tracer.finish(outer[0], token=outer)
    assert tracer.current_span() is None
    assert [span.op for span in tracer.store.spans()] == ["inner", "outer"]


def test_closing_an_outer_request_first_raises_and_books_nothing():
    _tracer, ledger = traced()
    outer = RequestContext(PLANE_HTTP, principal="alice", operation="a")
    inner = RequestContext(PLANE_HTTP, principal="alice", operation="a")
    ledger.open_request(outer)
    ledger.open_request(inner)  # an equal key: scopes are told apart by
    with pytest.raises(AssertionError, match="out of order"):  # identity
        ledger.close_request(outer)
    assert ledger.total.requests == 0 and outer.cost_open is not None
    ledger.close_request(inner)
    ledger.close_request(outer)
    assert ledger.total.requests == 2
    ledger.close_request(outer)  # closed already: a no-op, as ever
    assert ledger.total.requests == 2


def test_leaving_a_background_scope_over_an_open_request_raises():
    _tracer, ledger = traced()
    ctx = RequestContext(PLANE_HTTP, principal="alice", operation="a")
    with pytest.raises(AssertionError, match="out of order"):
        with ledger.scoped("s", plane="federation", operation="poll_round"):
            ledger.open_request(ctx)
