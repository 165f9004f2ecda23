"""Regression: a cross-server steering command reconstructs as ONE trace
tree spanning both servers, with the WAN hop on the critical path — the
tentpole acceptance scenario for the observability layer."""

import pytest

from repro.bench.scenarios import run_traced_remote_command

WAN_LATENCY = 0.060


@pytest.fixture(scope="module")
def traced_run():
    return run_traced_remote_command(wan_latency=WAN_LATENCY)


def test_command_reconstructs_as_single_cross_server_tree(traced_run):
    row, tracer, _registry = traced_run
    assert row["result"] is not None  # the steer actually ran
    store = tracer.store
    trace_id = store.trace_of_root("portal.command")
    assert trace_id is not None

    spans = store.spans(trace_id)
    assert len(spans) >= 6
    roots = store.tree(trace_id)
    assert len(roots) == 1, "cross-server propagation produced one tree"

    # the tree crosses the domain boundary: both DISCOVER servers appear
    servers = set(store.servers(trace_id))
    assert {"d0-server", "d1-server"} <= servers

    # every stage of the paper's remote-steering path is present
    ops = {span.op for span in spans}
    assert {"portal.command",         # client portal
            "/command/submit",        # HTTP plane on the local server
            "federation.deliver_command",  # router/federation relay
            "giop.deliver_command",   # GIOP client side
            "deliver_command",        # GIOP server side (home ORB)
            "proxy.deliver_command",  # CorbaProxy at the home server
            "net.hop"} <= ops


def test_wan_hop_is_recorded_and_on_the_critical_path(traced_run):
    _row, tracer, _registry = traced_run
    store = tracer.store
    trace_id = store.trace_of_root("portal.command")

    wan_hops = [span for span in store.spans(trace_id)
                if span.op == "net.hop" and span.attrs.get("wan")]
    assert wan_hops, "the command crossed the WAN"
    assert all(span.duration >= WAN_LATENCY for span in wan_hops)

    path = store.critical_path(trace_id)
    assert path, "critical path reconstructs"
    path_spans = {seg.span.op for seg in path}
    assert "net.hop" in path_spans
    wan_on_path = [seg for seg in path
                   if seg.span.op == "net.hop" and seg.span.attrs.get("wan")]
    assert wan_on_path, "the WAN hop bounds end-to-end latency"
    assert max(seg.duration for seg in wan_on_path) >= WAN_LATENCY


def test_metrics_registry_exposes_all_sources(traced_run):
    _row, _tracer, registry = traced_run
    snap = registry.snapshot()
    assert {"pipeline[d0-server]", "pipeline[d1-server]",
            "federation[d0-server]", "federation[d1-server]",
            "traffic", "spans"} <= set(snap)
    assert snap["spans"]["spans"] > 0
    flat = dict(registry.flattened())
    assert flat["spans.spans"] == snap["spans"]["spans"]


def test_exporter_round_trips_the_real_trace(traced_run, tmp_path):
    _row, tracer, _registry = traced_run
    from repro.obs import export_jsonl, load_jsonl, tree_signature
    store = tracer.store
    path = tmp_path / "trace.jsonl"
    assert export_jsonl(store, str(path)) == len(store)
    loaded = load_jsonl(str(path))
    assert len(loaded) == len(store)
    for trace_id in store.trace_ids():
        assert (tree_signature(loaded, trace_id)
                == tree_signature(store, trace_id))


def test_sampling_off_records_nothing_and_changes_nothing():
    row_on, tracer_on, _reg_on = run_traced_remote_command(
        wan_latency=WAN_LATENCY)
    row_off, tracer_off, _reg_off = run_traced_remote_command(
        wan_latency=WAN_LATENCY, sampling="off")

    # zero spans with sampling off
    assert len(tracer_off.store) == 0
    assert row_off["spans_recorded"] == 0
    assert row_off["traces_recorded"] == 0

    # tracing is zero-event: identical results and virtual timings
    assert row_off["result"] == row_on["result"]
    assert row_off["virtual_time_s"] == row_on["virtual_time_s"]
    for key in ("http_requests", "orb_requests", "channel_requests",
                "pipeline_errors"):
        assert row_off[key] == row_on[key]
