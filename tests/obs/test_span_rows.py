"""The span store keeps a finished span as one row of columns.

What a retained span costs (tracemalloc, per span), that reads hand back
spans equal to the ones finished — in the same bytes on export, the same
tree and the same attr order — and that the scans and the exemplar pick
read the columns without building a ``Span``.
"""

import gc
import hashlib
import tracemalloc

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.scenarios import run_traced_remote_command, scrape_status
from repro.obs import Tracer, export_jsonl, load_jsonl, tree_signature
from repro.obs import span as span_module
from repro.obs.tracer import Standalone

SPANS = 20_000

#: ``python -m repro trace --export`` of the default run
EXPORT_SHA256 = (
    "77e2ea35fb5ea4d4627a993533736563139f31598e6705d0fb8d0da2527b7f96")


def retained_per_span(write):
    """Bytes the store holds per span after ``write(tracer, parent,
    clock, i)`` ran ``SPANS`` times under one open root."""
    clock = {"now": 0.0}
    carrier = Standalone()
    tracer = Tracer(clock=lambda: clock["now"], scope=lambda: carrier,
                    max_spans=SPANS + 1)
    root = tracer.enter("root", plane="client", server="d0-client0")[0]
    parent = root.context()
    write(tracer, parent, clock, 0)  # the kind and the arrays exist
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(1, SPANS):
            write(tracer, parent, clock, i)
        gc.collect()
        per_span = (tracemalloc.get_traced_memory()[0] - before) / (SPANS - 1)
    finally:
        tracemalloc.stop()
    assert len(tracer.store) == SPANS
    return per_span


def request_span(tracer, parent, clock, i):
    """What ``RecordingInterceptor`` writes for one request."""
    clock["now"] = 5.0 + i * 1e-3
    token = tracer.enter("update", plane="channel", server="d0-server",
                         parent=parent,
                         attrs={"request_id": 10_000 + i,
                                "principal": "d0-app0", "bytes": 300 + i})
    clock["now"] += 4e-4
    tracer.finish(token[0], token=token)


def hop_span(tracer, parent, _clock, i):
    """What ``Network`` records for one traced frame at hand-off."""
    sent = 5.0 + i * 1e-3
    tracer.record_span("net.hop", sent, sent + 3e-4, plane="net",
                       server=f"d0-app{i % 4}->d0-server", parent=parent,
                       attrs={"wan": False, "channel": "main",
                              "bytes": 300 + i})


@pytest.mark.parametrize("write", [request_span, hop_span],
                         ids=["request", "hop"])
def test_a_retained_span_costs_at_most_200_bytes(write):
    # as a Span object with its attrs dict, ids and end: 460 / 438
    per_span = retained_per_span(write)
    assert per_span <= 200, per_span


@pytest.fixture(scope="module")
def traced_run():
    """The cross-server steer ``python -m repro trace`` runs."""
    _row, tracer, _registry = run_traced_remote_command()
    return tracer.store


def test_the_jsonl_export_is_the_same_bytes(traced_run, tmp_path):
    """Byte for byte what the store wrote when it kept span objects."""
    path = tmp_path / "trace.jsonl"
    assert export_jsonl(traced_run, str(path)) == len(traced_run) == 108
    data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == EXPORT_SHA256
    lines = data.decode().splitlines()
    # a root (no parent) whose attrs were annotated, and a WAN hop
    assert lines[95] == (
        '{"attrs": {"app_id": "d1-server#a1", "command": "get_param", '
        '"request_id": 36}, "end": 2.967703880000001, "error": "", '
        '"op": "portal.command", "parent_id": null, "plane": "client", '
        '"server": "d0-client0", "span_id": 78, '
        '"start": 2.8285372200000007, "status": "ok", "trace_id": 39}')
    assert lines[4] == (
        '{"attrs": {"bytes": 551, "channel": "corba", "wan": true}, '
        '"end": 0.0677692, "error": "", "op": "net.hop", "parent_id": 5, '
        '"plane": "net", "server": "d1-server->registry", "span_id": 6, '
        '"start": 0.0071810400000000005, "status": "ok", "trace_id": 2}')
    again = tmp_path / "again.jsonl"
    export_jsonl(load_jsonl(str(path)), str(again))
    assert again.read_bytes() == data


def test_tree_signatures_survive_the_round_trip(traced_run, tmp_path):
    path = tmp_path / "trace.jsonl"
    export_jsonl(traced_run, str(path))
    loaded = load_jsonl(str(path))
    assert loaded.trace_ids() == traced_run.trace_ids()
    for trace_id in traced_run.trace_ids():
        assert (tree_signature(loaded, trace_id)
                == tree_signature(traced_run, trace_id))
    assert loaded.spans() == traced_run.spans()


def test_attr_order_survives_annotate():
    tracer = Tracer(clock=lambda: 0.0)
    with tracer.span("portal.command", attrs={"app_id": "a", "command":
                                              "set"}) as span:
        tracer.annotate(span, request_id=7)
        tracer.annotate(span, app_id="b")
    (stored,) = tracer.store.spans()
    assert list(stored.attrs.items()) == [
        ("app_id", "b"), ("command", "set"), ("request_id", 7)]
    assert stored == span and stored is not span


def test_an_int_clock_reads_back_as_float():
    tracer = Tracer(clock=lambda: 3)
    with tracer.span("op"):
        pass
    (stored,) = tracer.store.spans()
    assert (stored.start, stored.end) == (3.0, 3.0)
    assert type(stored.start) is float


# -- exemplars ---------------------------------------------------------------

@pytest.fixture
def spans_built(monkeypatch):
    """The ops of the spans built from here on."""
    built = []
    plain = span_module.Span.__init__

    def counting(self, *args, **kwargs):
        plain(self, *args, **kwargs)
        built.append(self.op)

    monkeypatch.setattr(span_module.Span, "__init__", counting)
    return built


def test_the_scans_build_no_span(traced_run, spans_built):
    """Each reads what it read off the span objects."""
    trace_id = traced_run.trace_of_root("portal.command")
    assert trace_id == 39
    assert len(traced_run.trace_ids()) == 48
    assert traced_run.servers(trace_id) == [
        "d0-client0", "d0-client0->d0-server", "d0-server",
        "d0-server->d0-client0", "d0-server->d1-server", "d1-server",
        "d1-server->d0-server", "d1-server->d1-app0"]
    assert traced_run.planes() == [
        "channel", "client", "federation", "http", "net", "orb",
        "orb-client", "proxy"]
    snapshot = traced_run.snapshot()
    assert (snapshot["spans"], snapshot["traces"]) == (108, 48)
    assert snapshot["by_plane"]["net"] == {
        "count": 32, "mean_ms": 35.96444500000007,
        "p90_ms": 60.542591999999985}
    assert spans_built == []
    assert len(traced_run.spans(trace_id)) == len(spans_built) > 0


def test_picking_exemplars_builds_no_span(spans_built, monkeypatch):
    _rows, collab = EXPERIMENTS["E10b"].run(quick=True)
    server = collab.server_of(0)
    ok_only = Tracer(clock=lambda: 1.0)
    for i in range(1_000):
        with ok_only.span("update", plane="channel", attrs={"i": i}):
            pass
    spans_built.clear()  # the open spans of the run and of the loop
    # the run's store holds error rows: the worst are picked off the
    # columns, the traces the span objects gave
    assert server.health._exemplars(0.0) == [275, 292, 340]
    assert server.health._exemplars(9.0) == [340, 365, 389]
    monkeypatch.setattr(server, "tracer", ok_only)
    assert server.health._exemplars(0.0) == []
    assert spans_built == []
    collab.stop()


def test_e10b_alert_exemplars_are_unchanged():
    _rows, collab = EXPERIMENTS["E10b"].run(quick=True)
    alerts = scrape_status(collab, path="/status/alerts")["history"]
    assert [(a["slo"], a["severity"], a["fired_at"], a["exemplars"])
            for a in alerts] == [
        ("request_error_rate", "page", 8.0, [275, 280]),
        ("request_error_rate", "ticket", 8.0, [275, 280]),
        ("deliver_command_p99", "ticket", 9.0, [275, 292, 281]),
        ("deliver_command_p99", "page", 9.5, [275, 292, 298]),
    ]
    collab.stop()
