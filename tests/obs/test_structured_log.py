"""StructuredLog: stamping, trace correlation, sinks, bounded retention."""

import json

from repro.obs import StructuredLog


class TestStamping:
    def test_sim_time_and_server_stamped(self):
        now = [3.25]
        log = StructuredLog(clock=lambda: now[0], server="srvA")
        record = log.event("daemon.frame_dropped", reason="not a Message")
        assert record["ts"] == 3.25
        assert record["server"] == "srvA"
        assert record["event"] == "daemon.frame_dropped"
        assert record["reason"] == "not a Message"
        assert record["level"] == "info"

    def test_levels_and_helpers(self):
        log = StructuredLog()
        assert log.warn("x")["level"] == "warning"
        assert log.error("x")["level"] == "error"
        assert log.event("x", level="nonsense")["level"] == "info"

    def test_no_clock_defaults_to_zero(self):
        assert StructuredLog().event("x")["ts"] == 0.0


class TestTraceCorrelation:
    def test_active_span_ids_attached(self):
        class Span:
            trace_id = 17
            span_id = 99

        class FakeTracer:
            def current_span(self):
                return Span()

        log = StructuredLog(tracer=FakeTracer())
        record = log.event("x")
        assert record["trace_id"] == 17
        assert record["span_id"] == 99

    def test_no_active_span_means_no_ids(self):
        class FakeTracer:
            def current_span(self):
                return None

        record = StructuredLog(tracer=FakeTracer()).event("x")
        assert "trace_id" not in record

    def test_real_tracer_correlates(self):
        from repro.obs import Tracer
        from repro.sim import Simulator
        sim = Simulator()
        tracer = Tracer(sim)
        log = StructuredLog(clock=lambda: sim.now, server="s",
                            tracer=tracer)
        with tracer.span("op", plane="http", server="s") as span:
            record = log.event("inside")
        assert record["trace_id"] == span.trace_id
        assert record["span_id"] == span.span_id


class TestSinkAndRetention:
    def test_sink_receives_json_lines(self):
        lines = []
        log = StructuredLog(server="s", sink=lines.append)
        log.event("a", n=1)
        log.event("b", n=2)
        parsed = [json.loads(line) for line in lines]
        assert [r["event"] for r in parsed] == ["a", "b"]

    def test_bounded_ring_counts_drops(self):
        log = StructuredLog(capacity=3)
        for i in range(5):
            log.event("e", i=i)
        assert len(log) == 3
        assert log.dropped == 2
        assert [r["i"] for r in log.records()] == [2, 3, 4]
        # counts survive the drop — they are lifetime totals
        assert log.snapshot()["events"] == {"e": 5}

    def test_records_filtering(self):
        log = StructuredLog()
        log.event("a")
        log.warn("a")
        log.warn("b")
        assert len(log.records(event="a")) == 2
        assert len(log.records(level="warning")) == 2
        assert len(log.records(event="a", level="warning")) == 1

    def test_export_jsonl_parses(self):
        """What ``tools/export_health_artifacts.py`` writes: the sink's
        lines, nested payloads included, one JSON document each."""
        lines = []
        log = StructuredLog(sink=lines.append)
        log.event("a", payload={"deep": [1, 2]})
        log.event("b")
        parsed = [json.loads(line) for line in "\n".join(lines).splitlines()]
        assert [r["event"] for r in parsed] == ["a", "b"]
        assert parsed[0]["payload"] == {"deep": [1, 2]}

    def test_snapshot(self):
        log = StructuredLog()
        log.event("a")
        snap = log.snapshot()
        assert snap == {"records": 1, "dropped": 0, "events": {"a": 1}}


class TestServerIntegration:
    def test_server_log_replaces_silent_drops(self):
        """A non-Message frame on the daemon port becomes a structured
        warning (plus a channel-failure count) instead of silence."""
        from repro.core.deployment import build_single_server
        from repro.steering.application import DAEMON_PORT

        collab = build_single_server(app_hosts=1, client_hosts=1)
        collab.run_bootstrap()
        server = collab.server_of(0)
        host = collab.domains[0].app_hosts[0]
        ep = host.bind(12345)
        ep.send(server.host.name, DAEMON_PORT, {"not": "a message"})
        collab.sim.run(until=collab.sim.now + 1.0)
        drops = server.log.records(event="daemon.frame_dropped")
        assert len(drops) == 1
        assert drops[0]["server"] == server.name
        assert drops[0]["level"] == "warning"
        assert server.health.counters["channel_failures"] == 1
        collab.stop()

    def test_unknown_control_event_is_logged_not_raised(self):
        """The warning passed the control event as ``event=``, which is
        ``StructuredLog.warn``'s own first parameter: the message died in
        a ``TypeError`` (absorbed by the envelope, counted as a pipeline
        error) and nothing was logged."""
        from repro.core.deployment import build_single_server
        from repro.steering.application import DAEMON_PORT
        from repro.wire import ControlMessage

        collab = build_single_server(app_hosts=1, client_hosts=1)
        collab.run_bootstrap()
        server = collab.server_of(0)
        ep = collab.domains[0].app_hosts[0].bind(12345)
        ep.send(server.host.name, DAEMON_PORT,
                ControlMessage("unheard-of", app_id="a#1",
                               msg_id=collab.sim.next_id("msg")),
                channel="control")
        collab.sim.run(until=collab.sim.now + 1.0)
        (record,) = server.log.records(event="daemon.unknown_control_event")
        assert record["control_event"] == "unheard-of"
        assert record["level"] == "warning"
        assert server.pipeline_metrics.errors("channel") == 0
        collab.stop()


class TestOverflowVisibility:
    def test_ring_overflow_counts_drops(self):
        log = StructuredLog(capacity=4)
        for i in range(10):
            log.event("e", i=i)
        assert len(log) == 4
        assert log.dropped == 6
        assert log.snapshot() == {"records": 4, "dropped": 6,
                                  "events": {"e": 10}}

    def test_drops_surface_in_registry_and_bench_row(self):
        """Ring overflow is a first-class counter: visible in the unified
        metrics registry snapshot, the bench row, and the obs: footer —
        never a silent loss."""
        from repro.bench.report import format_pipeline_summary
        from repro.bench.scenarios import pipeline_counters
        from repro.core.deployment import build_single_server

        collab = build_single_server(app_hosts=1, client_hosts=1)
        collab.run_bootstrap()
        server = collab.server_of(0)
        server.log._records = type(server.log._records)(maxlen=2)
        for i in range(7):
            server.log.event("spam", i=i)

        snap = collab.metrics_registry().snapshot()
        log_snap = snap[f"log[{server.name}]"]
        assert log_snap["dropped"] == 5
        assert log_snap["records"] == 2
        assert f"timeseries[{server.name}]" in snap

        row = pipeline_counters(collab.servers.values())
        assert row["log_dropped"] == 5
        assert row["log_records"] == 2
        assert row["ts_series"] >= 0

        footer = format_pipeline_summary([row])
        assert "obs: log_records=2 log_dropped=5" in footer
        collab.stop()
