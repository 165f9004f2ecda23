"""The cost-attribution plane: exact per-request accounting, the
heavy-hitter ranking read from it, and the dispatch profiler.

The load-bearing invariant (mirrored from the PR 9 time-series merge
tests) is **exact partition**: every charge lands in exactly one rollup
entry, all fields are integers, so any grouping of the entries sums back
to the ledger's running totals bit-for-bit.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.stats import Reservoir
from repro.net import Network
from repro.obs import DispatchProfiler, RequestCostLedger
from repro.obs.accounting import ALL_DIMENSIONS
from repro.obs.timeseries import LogHistogram
from repro.pipeline.core import PLANE_HTTP, Interceptor, RequestContext
from repro.sim import Simulator


def make_ledger(**kwargs):
    """A ledger with an inert event count — pure bookkeeping, no
    simulator."""
    return RequestCostLedger(events_fn=lambda: 0, **kwargs)


def exact_ranking(ledger, dim):
    """``[(principal, count, 0)]`` straight from the partition, count
    descending and ties by name: what ``top`` is held to."""
    counts = {who: vec.as_dict()[dim] for who, vec
              in ledger.partition_by("principal").items()}
    return [(who, n, 0) for who, n
            in sorted(counts.items(), key=lambda pc: (-pc[1], pc[0])) if n]


class TestLedgerAttribution:
    def test_scoped_charges_attribute_to_principal(self):
        ledger = make_ledger()
        with ledger.scoped("alice", plane="federation",
                           operation="poll_round"):
            ledger.charge("wal_appends", 3)
        entry = ledger.entries[("alice", "-", "federation", "poll_round")]
        assert entry.as_dict()["wal_appends"] == 3
        assert ledger.total.as_dict()["wal_appends"] == 3

    def test_scopeless_charge_falls_back(self):
        ledger = make_ledger()
        ledger.charge("spans", 2, plane="obs", operation="span")
        assert ledger.entries[("-", "-", "obs", "span")].as_dict()[
            "spans"] == 2

    def test_request_lifecycle_charges_request_and_events(self):
        events = {"n": 0}
        ledger = RequestCostLedger(events_fn=lambda: events["n"])
        ctx = RequestContext(PLANE_HTTP, principal="bob",
                             operation="poll", cpu_cost=0.0015)
        ledger.open_request(ctx)
        events["n"] += 4  # four events dispatched while handling
        ledger.close_request(ctx)
        vec = ledger.entries[("bob", "-", PLANE_HTTP, "poll")].as_dict()
        assert vec["requests"] == 1
        # +1 for the event that delivered the request itself
        assert vec["events"] == 5
        assert vec["cpu_us"] == 1500
        assert vec["errors"] == 0

    def test_error_close_counts_error(self):
        ledger = make_ledger()
        ctx = RequestContext(PLANE_HTTP, principal="eve", operation="put")
        ledger.open_request(ctx)
        ctx.error_type = "PermissionError"
        ledger.close_request(ctx)
        vec = ledger.entries[("eve", "-", PLANE_HTTP, "put")].as_dict()
        assert vec["errors"] == 1 and vec["requests"] == 1

    def test_trace_binding_routes_frame_bytes(self):
        class Ctx:
            trace_id = 7

        class Frame:
            trace_ctx = Ctx()
            src_host = "h1"
            channel = "main"
            size = 120

        ledger = make_ledger()
        ledger.bind_trace(7, ("carol", "a#1", "orb", "lookup"))
        ledger.account_frame_hop(Frame(), wan=True)
        vec = ledger.entries[("carol", "a#1", "orb", "lookup")].as_dict()
        assert vec["wan_bytes"] == 120

    def test_unbound_frame_falls_back_to_src_host(self):
        class Frame:
            trace_ctx = None
            src_host = "h9"
            channel = "flood"
            size = 64

        ledger = make_ledger()
        ledger.account_frame_hop(Frame(), wan=False)
        assert ledger.entries[("h9", "-", "net", "flood")].as_dict()[
            "lan_bytes"] == 64

    def test_trace_binding_lru_is_bounded(self):
        ledger = make_ledger(max_trace_bindings=10)
        for i in range(25):
            ledger.bind_trace(i, ("p", "-", "orb", "op"))
        assert len(ledger._bindings) == 10
        assert 24 in ledger._bindings and 0 not in ledger._bindings


class TestDroppedFrameAccounting:
    """Satellite 1: shed load is cost, not just a diagnostics deque."""

    def test_unbound_port_drop_lands_in_ledger(self):
        sim = Simulator()
        net = Network(sim)
        ledger = RequestCostLedger(sim)
        net.trace.ledger = ledger
        net.add_host("a")
        net.add_host("b")
        net.add_link("a", "b", latency=0.001)
        net.send("a", 1, "b", 9, {"junk": "x"})  # port 9 never bound
        sim.run()
        assert net.trace.dropped.messages == 1
        totals = ledger.total.as_dict()
        assert totals["dropped_frames"] == 1
        assert totals["dropped_bytes"] > 0
        vec = ledger.entries[("a", "-", "net", "main")].as_dict()
        assert vec["dropped_frames"] == 1
        assert vec["dropped_bytes"] == totals["dropped_bytes"]

    def test_dropped_costs_surface_in_pipeline_counters(self):
        from repro.bench.scenarios import pipeline_counters
        from repro.core.deployment import build_collaboratory

        collab = build_collaboratory(1)
        collab.run_bootstrap()
        server = collab.server_of(0)
        # spray two junk frames at an unbound port on the server host
        for _ in range(2):
            collab.net.send(server.host.name, 45_000, server.host.name,
                            9, {"junk": True})
        collab.sim.run(until=collab.sim.now + 1.0)
        row = pipeline_counters(collab.servers.values())
        assert row["cost_dropped_frames"] == 2
        assert row["cost_dropped_bytes"] > 0


class TestPartitionInvariants:
    """Per-principal vectors partition the global totals."""

    def test_partition_by_principal_sums_to_totals(self):
        ledger = make_ledger()
        for i, who in enumerate(("a", "b", "a", "c")):
            with ledger.scoped(who, plane="orb", operation=f"op{i % 2}"):
                ledger.charge("wal_appends", i + 1)
                ledger.charge("spans", 1)
        parts = ledger.partition_by("principal")
        summed = {dim: 0 for dim in ALL_DIMENSIONS}
        for vec in parts.values():
            for dim, val in vec.as_dict().items():
                summed[dim] += val
        assert summed == ledger.total.as_dict()

    @given(st.lists(
        st.tuples(st.sampled_from(list("abcdefghijkl")),
                  st.sampled_from(ALL_DIMENSIONS),
                  st.integers(min_value=1, max_value=10**6)),
        min_size=1, max_size=120),
        st.integers(min_value=1, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_any_charge_stream_ranks_and_partitions_exactly(self, charges,
                                                           n):
        """Whatever the charge stream, each dimension's ranking is the
        exact table and the per-principal vectors sum to the totals."""
        ledger = make_ledger()
        for who, dim, units in charges:
            with ledger.scoped(who, plane="orb", operation="op"):
                ledger.charge(dim, units)
        for dim in ALL_DIMENSIONS:
            assert ledger.top(dim, n) == exact_ranking(ledger, dim)[:n]
        summed = {dim: 0 for dim in ALL_DIMENSIONS}
        for vec in ledger.partition_by("principal").values():
            for dim, val in vec.as_dict().items():
                summed[dim] += val
        assert summed == ledger.total.as_dict()

    def test_near_equal_principals_rank_exactly(self):
        """20 principals a few requests apart, tied in pairs: more than a
        bounded set of counters can tell apart, and the entries hold every
        one of them anyway."""
        ledger = make_ledger()
        counts = {f"u{i:02d}": 100 + (i * 7) % 10 for i in range(20)}
        for k in range(max(counts.values())):
            for who, n in counts.items():
                if k < n:
                    ctx = RequestContext(PLANE_HTTP, principal=who,
                                         operation="poll")
                    ledger.open_request(ctx)
                    ledger.close_request(ctx)
        assert ledger.top("requests", 3) \
            == [("u07", 109, 0), ("u17", 109, 0), ("u04", 108, 0)]
        assert ledger.top("requests", 20) == exact_ranking(ledger, "requests")

    def test_cost_gate_names_a_snapshot_that_contradicts_itself(self):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "check_cost_regression", Path(__file__).parents[2] / "tools"
            / "check_cost_regression.py")
        gate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gate)
        ledger = make_ledger()
        for who, n in (("a", 3), ("b", 5), ("c", 5)):
            with ledger.scoped(who, plane="orb", operation="op"):
                ledger.charge("spans", n)
                ledger.charge("wal_appends", 1)
        snapshot = ledger.snapshot()
        assert gate.snapshot_disagreements(snapshot) == []
        snapshot["heavy_hitters"]["spans"][0] = ["c", 6, 1]
        snapshot["totals"]["wal_appends"] += 1
        assert [line.split(":")[0] for line
                in gate.snapshot_disagreements(snapshot)] \
            == ["wal_appends", "spans"]

    def test_accounting_is_zero_event(self):
        """Ledger bookkeeping schedules nothing and dispatches nothing."""
        sim = Simulator()
        ledger = RequestCostLedger(sim)
        with ledger.scoped("p", plane="orb", operation="op"):
            ledger.charge("wal_appends", 5)
        ctx = RequestContext(PLANE_HTTP, principal="p", operation="poll")
        ledger.open_request(ctx)
        ledger.close_request(ctx)
        assert sim.events_dispatched == 0
        assert sim.peek() == math.inf  # nothing scheduled

    def test_golden_e1_parity_accounting_on_vs_off(self):
        """The E1 science row is bit-for-bit identical with the cost
        ledger enabled and removed — accounting never perturbs virtual
        time (the driver's golden E1/E2/E4 gates check the same property
        against the committed tables)."""
        from repro.bench.scenarios import run_app_scalability

        on = run_app_scalability(8, duration=10.0)
        off = run_app_scalability(8, duration=10.0,
                                  accounting_enabled=False)
        science = [k for k in off if not k.startswith("cost_")]
        assert {k: off[k] for k in science} \
            == {k: on[k] for k in science}
        assert on["cost_requests"] > 0
        assert off["cost_requests"] == 0


class TestPinnedEdgeCases:
    """Satellite 2: empty/single-observation behavior, now contractual."""

    def test_log_histogram_empty_quantile_is_zero(self):
        h = LogHistogram()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 0.0

    def test_log_histogram_single_observation_every_quantile(self):
        for value in (0.0037, 1.0, 812.5, 0.0, -3.0):
            h = LogHistogram()
            h.add(value)
            for q in (0.0, 0.5, 0.99, 1.0):
                assert h.quantile(q) == value, (value, q)

    def test_reservoir_empty_stats_all_zero(self):
        stats = Reservoir().stats()
        assert (stats.count, stats.mean, stats.std) == (0, 0.0, 0.0)
        # the ±inf min/max sentinels must never leak out
        assert stats.minimum == 0.0 and stats.maximum == 0.0
        assert (stats.p50, stats.p90, stats.p99) == (0.0, 0.0, 0.0)

    def test_reservoir_single_observation_everywhere(self):
        r = Reservoir()
        r.add(42.5)
        stats = r.stats()
        assert stats.count == 1 and stats.std == 0.0
        for field in ("mean", "minimum", "p50", "p90", "p99", "maximum"):
            assert getattr(stats, field) == 42.5, field


class TestDispatchProfiler:
    def test_samples_fold_and_export(self):
        # deterministic wall clock: 1 µs per tick → every stride-th
        # event lands past the sampling interval
        tick = {"ns": 0}

        def wall():
            tick["ns"] += 1000
            return tick["ns"]

        profiler = DispatchProfiler(interval_us=1, stride=4,
                                    wall_clock=wall)
        sim = Simulator()
        profiler.install(sim)

        def proc(sim):
            for _ in range(64):
                yield sim.timeout(0.1)

        sim.spawn(proc(sim), name="busy-loop")
        sim.run()
        profiler.uninstall()
        assert sim.profiler is None
        assert profiler.sample_count > 0
        assert profiler.events_seen == sim.events_dispatched
        folded = profiler.folded()
        assert any("busy-loop" in stack for stack in folded)
        collapsed = profiler.collapsed()
        assert collapsed.endswith("\n")
        for line in collapsed.strip().splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert int(weight) >= 1 and ";" in stack
        chrome = profiler.to_chrome()
        assert chrome["metadata"]["samples"] == profiler.sample_count
        assert all(ev["ph"] == "X" for ev in chrome["traceEvents"])

    def test_uninstalled_kernel_runs_clean(self):
        sim = Simulator()
        profiler = DispatchProfiler()
        profiler.install(sim)
        profiler.uninstall()
        done = sim.timeout(1.0)
        sim.run(until=done)
        assert profiler.sample_count == 0


class TestInterceptorSeam:
    class Shed(Interceptor):
        name = "shed"

        def before(self, ctx):
            raise RuntimeError("bucket exhausted")

    def test_rejected_request_is_still_accounted(self):
        """Recording sits before admission in the chain: a request shed
        deeper in (an exhausted token bucket) still costs its principal."""
        from repro.obs import RecordingInterceptor
        from repro.pipeline.core import Pipeline

        ledger = make_ledger()
        pipeline = Pipeline([RecordingInterceptor(ledger=ledger),
                             self.Shed()])
        ctx = RequestContext(PLANE_HTTP, principal="mallory",
                             operation="flood")
        with pytest.raises(RuntimeError):
            next(pipeline.execute(ctx, lambda c: None))
        vec = ledger.entries[("mallory", "-", PLANE_HTTP, "flood")]
        assert vec.as_dict()["requests"] == 1
        assert vec.as_dict()["errors"] == 1

    def test_rejected_request_reaches_every_store_with_one_error_type(self):
        from repro.metrics import PipelineMetrics
        from repro.obs import RecordingInterceptor, Tracer
        from repro.pipeline.interceptors import ErrorEnvelopeInterceptor
        from repro.pipeline.core import Pipeline

        ledger, metrics, tracer = make_ledger(), PipelineMetrics(), Tracer()
        pipeline = Pipeline([
            ErrorEnvelopeInterceptor(),
            RecordingInterceptor(metrics=metrics, tracer=tracer,
                                 ledger=ledger),
            self.Shed()], clock=lambda: 0.0)  # metrics take a latency
        ctx = RequestContext(PLANE_HTTP, principal="mallory",
                             operation="flood")
        with pytest.raises(StopIteration):  # absorbed: a 500 reply
            next(pipeline.execute(ctx, lambda c: None))
        assert ctx.error is None and ctx.error_type == "RuntimeError"
        assert metrics.error_types(PLANE_HTTP) == {"RuntimeError": 1}
        (span,) = tracer.store.spans()
        assert (span.status, span.error) == (
            "error", "RuntimeError: bucket exhausted")
        vec = ledger.entries[("mallory", "-", PLANE_HTTP, "flood")]
        assert vec.as_dict()["errors"] == 1

    def test_successful_request_through_chain(self):
        from repro.obs import RecordingInterceptor
        from repro.pipeline.core import Pipeline

        ledger = make_ledger()
        pipeline = Pipeline([RecordingInterceptor(ledger=ledger)])
        ctx = RequestContext(PLANE_HTTP, principal="alice",
                             operation="poll")
        with pytest.raises(StopIteration) as stop:
            next(pipeline.execute(ctx, lambda c: "ok"))
        assert stop.value.value == "ok"
        vec = ledger.entries[("alice", "-", PLANE_HTTP, "poll")].as_dict()
        assert vec["requests"] == 1 and vec["errors"] == 0
