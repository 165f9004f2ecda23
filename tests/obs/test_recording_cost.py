"""What recording one request costs, as counts of store writes — no
timing (in the spirit of tests/obs/test_timeseries_cost.py).

One completed request is one ``PipelineMetrics.observe``, one
``SpanStore.add`` and one ledger entry lookup from ``close_request``;
every other charge (a span minted, a WAL append, a frame hop) stays its
own single lookup.  And nobody pays for a collector no surface can read:
a bare component's chain is the envelope alone, and a tracer that samples
nothing is not one of the recording step's sinks.  The last test is the
whole recording path as one exact call count (in the style of
tests/net/test_frame_cost.py).
"""

import cProfile
import gc
import pstats

from repro.core.daemon import DaemonService
from repro.core.deployment import build_collaboratory
from repro.net import Network
from repro.obs import RecordingInterceptor, Tracer
from repro.orb import Orb
from repro.pipeline.interceptors import (ErrorEnvelopeInterceptor,
                                         default_pipeline)
from repro.sim import Simulator
from repro.steering.application import DAEMON_PORT
from repro.web import ServletContainer
from repro.wire import ControlMessage, RegisterMessage
from tests.conftest import drive, equipped_server


class CountingEntries(dict):
    """``ledger.entries`` that counts keyed reads (``get`` / ``[]``)."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def make_server():
    sim = Simulator()
    net = Network(sim)
    net.add_host("solo")
    net.add_host("peer")
    net.add_link("solo", "peer", 0.001)
    tracer = Tracer(sim)
    server = equipped_server(net.hosts["solo"], tracer)
    net.trace.ledger = server.ledger
    return sim, net, server


def sinks(interceptor):
    return {name: getattr(interceptor, name) for name
            in ("metrics", "tracer", "ledger")
            if getattr(interceptor, name, None) is not None}


def test_a_server_plane_chain_is_four_interceptors_and_one_records():
    _sim, _net, server = make_server()
    for component in (server.container, server.daemon, server.orb):
        chain = component.pipeline.interceptors
        assert [i.name for i in chain] == [
            "error-envelope", "recording", "security", "admission"]
        assert type(chain[1]) is RecordingInterceptor
        assert [sinks(i) for i in chain] == [
            {}, {"metrics": server.pipeline_metrics,
                 "tracer": server.tracer, "ledger": server.ledger}, {}, {}]


def test_bare_components_record_no_metrics():
    sim, net, server = make_server()
    bare = (Orb(net.hosts["peer"]),
            ServletContainer(net.hosts["peer"]),
            DaemonService(server, port=DAEMON_PORT + 1))
    for component in bare:
        chain = component.pipeline.interceptors
        assert isinstance(chain[0], ErrorEnvelopeInterceptor)
        # no recording step: a bare ORB's own tracer samples nothing
        assert [sinks(i) for i in chain] == [{}] * len(chain)
    assert [i.name for i in bare[0].pipeline.interceptors] == [
        "error-envelope"]
    chain = default_pipeline(clock=lambda: sim.now).interceptors
    assert [i.name for i in chain] == ["error-envelope"]
    traced = Orb(net.hosts["solo"], port=9000, tracer=server.tracer)
    assert [sinks(i) for i in traced.pipeline.interceptors] == [
        {}, {"tracer": server.tracer}]


def test_an_off_tracer_is_not_a_sink_of_the_recording_step():
    collab = build_collaboratory(1, apps_hosts_per_domain=1,
                                 client_hosts_per_domain=1,
                                 trace_sampling="off")
    server = collab.server_of(0)
    assert server.tracer is collab.tracer and not server.tracer.enabled
    for component in (server.container, server.daemon, server.orb):
        chain = component.pipeline.interceptors
        assert [i.name for i in chain] == [
            "error-envelope", "recording", "security", "admission"]
        assert sinks(chain[1]) == {"metrics": server.pipeline_metrics,
                                   "ledger": server.ledger}
    collab.stop()


def test_one_request_writes_each_store_once():
    sim, net, server = make_server()
    ledger, store = server.ledger, server.tracer.store
    calls = {"observe": 0, "add": 0, "hops": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    server.pipeline_metrics.observe = counted(
        "observe", server.pipeline_metrics.observe)
    store.add = counted("add", store.add)
    ledger.account_frame_hop = counted("hops", ledger.account_frame_hop)
    ledger.entries = entries = CountingEntries(ledger.entries)

    peer = Orb(net.hosts["peer"])  # untraced caller: the span is a root
    channel = net.hosts["peer"].bind(5000)

    def ping():
        return (yield from peer.invoke(server.corba_ref, "ping"))

    def register():
        channel.send("solo", DAEMON_PORT, RegisterMessage(
            "app", "", {}, {"alice": "write"}, msg_id=sim.next_id("msg")),
            channel="main")
        yield channel.recv()  # the ack

    for request, wal_appends in ((ping, 0), (register, 2)):
        before = dict(calls, lookups=entries.lookups,
                      **ledger.total.as_dict())
        drive(sim, request())
        after = ledger.total.as_dict()
        assert after["requests"] - before["requests"] == 1
        assert after["wal_appends"] - before["wal_appends"] == wal_appends
        assert calls["observe"] - before["observe"] == 1
        assert calls["add"] - before["add"] == 1
        # close_request's one lookup, plus one per charge made elsewhere
        assert entries.lookups - before["lookups"] == (
            1 + (after["spans"] - before["spans"]) + wal_appends
            + (calls["hops"] - before["hops"]))


#: calls into Python functions of repro.obs + repro.metrics for one channel
#: request, every plane on: the frame's hop 2 (``account_frame_hop``,
#: ``_frame_key``); the interceptor's ``before`` / ``after`` 2, each one
#: call into each plane — ``Tracer.enter`` / ``finish`` 2, with the span,
#: its context and ``SpanStore.add`` 4; the ledger's ``open_request``
#: (``_app_of``, ``bind_trace``), ``close_request`` and the span's
#: ``charge_span`` 5; ``PipelineMetrics.observe`` and its reservoir 2; the
#: one latency point it writes 5 (the registry's ``observe`` and ``_get``,
#: the series' ``observe``, the histogram's ``add`` and ``bucket_index``).
#: Before a request's scope rode on its process this read 38: the
#: tracer's clock and scope lambdas 4 and the ledger's scope and events
#: lambdas 5 went, ``activate`` / ``deactivate`` /
#: ``current_context`` 3 moved inside ``enter`` / ``finish``, and
#: ``charge`` → ``_charge_key`` became ``charge_span`` 1: 25.  The request
#: is no longer also a ``pipeline.requests.<plane>`` increment — the
#: registry's ``inc`` and ``_get`` and the series' ``inc``, 3 fewer: 22.
RECORDED_REQUEST_CALLS = 22

#: calls into Python functions of repro.core.policies, and into the
#: dataclass ``__init__``\ s they build, for one admitted channel request
#: with no policy installed: ``PolicyManager.check`` 1, a dict lookup.
#: While admission also kept a book of its own (``UsageLedger``) this
#: read 3: ``check``, ``UsageLedger.record`` and the ``UsageRecord()``
#: ``setdefault`` built on every call, new principal or not.
ADMISSION_CALLS = 1


def profile_one_channel_request():
    """One channel request to an equipped server, every plane on, under
    cProfile: ``(server, totals before it, pstats of it)``."""
    sim, net, server = make_server()
    channel = net.hosts["peer"].bind(5000)

    def register():
        channel.send("solo", DAEMON_PORT, RegisterMessage(
            "app", "", {}, {"alice": "write"}, msg_id=sim.next_id("msg")),
            channel="main")
        return (yield channel.recv()).payload.info

    app_id = drive(sim, register())
    assert app_id in server.local_proxies

    def phase_change():
        channel.send("solo", DAEMON_PORT, ControlMessage(
            "phase", app_id=app_id, detail="compute",
            msg_id=sim.next_id("msg")), channel="main")
        yield sim.timeout(0.01)

    drive(sim, phase_change())  # the entry, the series and this bucket exist
    before = dict(server.ledger.total.as_dict(),
                  observed=server.pipeline_metrics.requests(),
                  stored=len(server.tracer.store))
    profiler = cProfile.Profile()
    gc.collect()
    gc.disable()
    try:
        profiler.enable()
        drive(sim, phase_change())
        profiler.disable()
    finally:
        gc.enable()
    return server, before, pstats.Stats(profiler).stats


def test_one_channel_request_recording_path_calls():
    server, before, stats = profile_one_channel_request()
    total = server.ledger.total.as_dict()
    assert server.pipeline_metrics.requests() - before["observed"] == 1
    assert len(server.tracer.store) - before["stored"] == 1
    assert total["requests"] - before["requests"] == 1
    assert total["spans"] - before["spans"] == 1
    calls = sum(
        row[1] for (filename, _line, _name), row in stats.items()
        if "/repro/obs/" in filename or "/repro/metrics/" in filename)
    assert calls == RECORDED_REQUEST_CALLS


def test_one_admitted_channel_request_admission_calls():
    server, before, stats = profile_one_channel_request()
    assert server.ledger.total.as_dict()["errors"] == before["errors"]
    policies = "/repro/core/policies.py"
    calls = sum(row[1] for (filename, _line, _name), row in stats.items()
                if filename.endswith(policies))
    # pstats keys every generated dataclass __init__ as one <string>
    # function: count only the calls policies.py made into it
    calls += sum(
        count[0] for (filename, _line, _name), row in stats.items()
        if filename == "<string>"
        for (caller, *_), count in row[4].items()
        if caller.endswith(policies))
    assert calls == ADMISSION_CALLS
