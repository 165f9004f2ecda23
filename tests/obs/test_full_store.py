"""A full span store refuses a hop span without building it — and nothing
an operator can read tells the difference.

``wan_steering`` drops more than half its spans at ``trace_max_spans=
20 000``.  A ``net.hop`` span is written as a store row and never built as
a ``Span``, whether the store keeps it or refuses it.  Refused spans are
still numbered, charged and counted: the span ids of the requests after
them (the latency histograms' exemplars), the ledger's ``spans`` dimension
and ``spans_dropped`` are those of a run whose store had room for
everything.
"""

import math

from repro import build_collaboratory
from repro.bench.workload import make_app_farm, polling_client
from repro.metrics import LatencyRecorder
from repro.obs import span as span_module
from repro.obs.timeseries import TimeSeries

ROOM = 20


def polling_run(max_spans, built):
    """One server, one app, two portals polling for two simulated seconds;
    returns what the planes recorded.  ``built`` collects the ops of the
    spans built."""
    collab = build_collaboratory(1, trace_max_spans=max_spans)
    collab.run_bootstrap()
    sim = collab.sim
    (app,) = make_app_farm(collab, 1, user="bench")
    sim.run(until=sim.now + 1.0)
    recorder = LatencyRecorder(sim)
    for _ in range(2):
        sim.spawn(polling_client(collab.add_portal(0), app.app_id,
                                 user="bench", duration=2.0,
                                 poll_interval=0.25, recorder=recorder))
    sim.run(until=sim.now + 3.0)
    server, store = collab.server_of(0), collab.tracer.store
    hops_built = built.count("net.hop")  # before the reads below build any
    exemplars = {}
    for doc in server.timeseries.to_dict()["series"]:
        if doc["name"].startswith("pipeline.latency."):
            merged = TimeSeries.from_dict(doc).merged_histogram(-math.inf,
                                                                math.inf)
            exemplars[doc["name"]] = [merged.exemplars[k]
                                      for k in sorted(merged.exemplars)]
    ledger = server.ledger
    return {
        "spans": [span.to_dict() for span in store.spans()],
        "dropped": store.dropped,
        "exemplars": exemplars,
        "ledger_spans": {key: vec.spans
                         for key, vec in sorted(ledger.entries.items())},
        "total_spans": ledger.total.spans,
        "poll_rtt": recorder.samples("poll_rtt"),
        "hops_built": hops_built,
    }


def test_a_full_store_changes_only_what_is_retained(monkeypatch):
    plain = span_module.Span.__init__

    def counting(self, *args, **kwargs):
        plain(self, *args, **kwargs)
        built.append(self.op)

    monkeypatch.setattr(span_module.Span, "__init__", counting)
    built = []
    roomy = polling_run(50_000, built)
    assert roomy["dropped"] == 0 and len(roomy["spans"]) > 2 * ROOM
    built = []
    full = polling_run(ROOM, built)

    # what is retained is the head of the same sequence, id for id
    assert full["spans"] == roomy["spans"][:ROOM]
    assert full["dropped"] == len(roomy["spans"]) - ROOM
    # refused spans keep their numbers, so later requests keep their ids …
    assert full["exemplars"] == roomy["exemplars"]
    assert max(span_id for ids in roomy["exemplars"].values()
               for span_id in ids) > ROOM
    # … and their charge
    assert full["ledger_spans"] == roomy["ledger_spans"]
    assert full["total_spans"] == len(roomy["spans"])
    assert full["poll_rtt"] == roomy["poll_rtt"] != []
    # and no hop span is built at all, kept or refused
    hops_retained = sum(span["op"] == "net.hop" for span in full["spans"])
    hops_in_all = sum(span["op"] == "net.hop" for span in roomy["spans"])
    assert hops_in_all > 2 * hops_retained > 0
    assert roomy["hops_built"] == full["hops_built"] == 0
