"""One scripted request mix through a server's three planes, every
recording surface pinned.

The mix covers each way a request can complete — handled, handler
raises, registration rejected by security, shed by admission, answered
by a ``before`` short-circuit, oneway (no reply path) — and the expected
values below were captured at the commit *before* the three
observability interceptors became one
:class:`~repro.obs.RecordingInterceptor`; the test passes on both, so the
merge moved no counter, span, ledger entry or time-series point.  Since
a request became one latency point, the ``pipeline.requests.<plane>``
series that repeated each bucket's ``count`` is no longer written, and
its three entries are gone from ``SERIES``; since the ORB's port became
a handler, two spans of ``SPANS`` trade places (see there); every other
value is as captured.
"""

import pytest

from repro.core.policies import ResourcePolicy
from repro.net import Network
from repro.obs import Tracer
from repro.obs.accounting import ALL_DIMENSIONS
from repro.orb import Orb, OrbError, RemoteException
from repro.pipeline import Interceptor, Pipeline
from repro.sim import Simulator
from repro.steering.application import DAEMON_PORT
from repro.web import HttpError
from repro.web.client import HttpClient
from repro.wire import ControlMessage, RegisterMessage
from tests.conftest import equipped_server


class CachedAnswer(Interceptor):
    """A ``before`` short-circuit: answers ``/cached`` without a handler."""

    name = "cache"

    def before(self, ctx):
        if ctx.operation == "/cached":
            ctx.response = (200, {"cached": True})


def run_mix():
    sim = Simulator()
    net = Network(sim)
    for name in ("solo", "peer", "flood"):
        net.add_host(name)
    net.add_link("solo", "peer", 0.001)
    net.add_link("solo", "flood", 0.001)
    tracer = Tracer(sim)
    server = equipped_server(net.hosts["solo"], tracer)
    server.security.app_tokens["guarded"] = "s3cret"
    server.policies.set_policy(
        "flood", ResourcePolicy(max_requests_per_s=1.0, burst_seconds=1.0))
    chain = server.container.pipeline
    server.container.pipeline = Pipeline(
        chain.interceptors + (CachedAnswer(),), clock=chain.clock)

    http = HttpClient(net.hosts["peer"], "solo")
    flood_http = HttpClient(net.hosts["flood"], "solo")
    orb = Orb(net.hosts["peer"], tracer=tracer)
    flood_orb = Orb(net.hosts["flood"], tracer=tracer)
    channel = net.hosts["peer"].bind(5000)
    outcomes = []

    def attempt(call):
        try:
            yield from call
            outcomes.append("ok")
        except (HttpError, OrbError, RemoteException) as exc:
            outcomes.append(type(exc).__name__)

    def scenario():
        # http: handled, handler raises (no client_id: KeyError), no
        # servlet (a 404 the router answers), before short-circuit
        yield from attempt(http.get("/status"))
        yield from attempt(http.get("/master/apps"))
        yield from attempt(http.get("/nowhere"))
        yield from attempt(http.get("/cached"))
        # orb: handled, unknown operation, oneway (one good, one bad)
        yield from attempt(orb.invoke(server.corba_ref, "ping"))
        yield from attempt(orb.invoke(server.corba_ref, "no_such_op"))
        orb.invoke_oneway(server.corba_ref, "ping")
        orb.invoke_oneway(server.corba_ref, "no_such_op")
        # channel: registration accepted / rejected by security, and one
        # message with no reply path
        for token in ("s3cret", "wrong"):
            channel.send("solo", DAEMON_PORT, RegisterMessage(
                "guarded", token, {}, {"alice": "write"}), channel="main")
        channel.send("solo", DAEMON_PORT,
                     ControlMessage("phase", "compute", app_id="solo#a1"),
                     channel="control")
        yield sim.timeout(0.5)
        # a handler that takes virtual time: non-zero latency, an exemplar
        yield from attempt(http.post("/master/login",
                                     params={"user": "alice"}))
        # admission: a one-request bucket admits the first, sheds the rest
        for _ in range(3):
            yield from attempt(flood_http.get("/status"))
        for _ in range(2):
            flood_orb.invoke_oneway(server.corba_ref, "ping")
        yield sim.timeout(0.5)

    sim.run(until=sim.spawn(scenario()))
    server.stop()

    metrics = server.pipeline_metrics
    ledger = server.ledger.snapshot()
    spans = tracer.store.spans()
    op_of = {span.span_id: span.op for span in spans}
    series = {doc["name"]: doc
              for doc in server.timeseries.to_dict()["series"]}
    assert all(doc["width"] == 0.25 for doc in series.values())
    return {
        "outcomes": outcomes,
        "metrics": metrics.snapshot(),
        "counted": {plane: (metrics.requests(plane), metrics.errors(plane))
                    for plane in metrics.planes()},
        "error_types": {plane: metrics.error_types(plane)
                        for plane in metrics.planes()},
        "ledger_dimensions": ledger["dimensions"],
        "ledger_totals": {dim: n for dim, n in ledger["totals"].items()
                          if n},
        "ledger_entries": {
            "|".join(entry[field] for field in
                     ("principal", "app", "plane", "operation")):
            {dim: entry[dim] for dim in ledger["dimensions"] if entry[dim]}
            for entry in ledger["entries"]},
        "heavy_hitters": {dim: top for dim, top
                          in ledger["heavy_hitters"].items() if top},
        "spans": [(span.op, span.plane, span.status, span.error,
                   op_of.get(span.parent_id)) for span in spans],
        # every series, bucket index -> value
        "series": {name: doc["buckets"] for name, doc in series.items()},
    }


# -- captured at the parent commit --------------------------------------

OUTCOMES = ['ok', 'HttpError', 'HttpError', 'ok', 'ok', 'BadOperation', 'ok', 'ok',
            'HttpError', 'HttpError']

METRICS = {'channel': {'errors': 1,
                       'mean_latency_ms': 0.0,
                       'p90_latency_ms': 0.0,
                       'requests': 3},
           'http': {'errors': 3,
                    'mean_latency_ms': 2.1250000000000018,
                    'p90_latency_ms': 5.100000000000001,
                    'requests': 8},
           'orb': {'errors': 4,
                   'mean_latency_ms': 0.0,
                   'p90_latency_ms': 0.0,
                   'requests': 6}}

ERROR_TYPES = {'channel': {'SecurityError': 1},
               'http': {'KeyError': 1, 'PolicyViolation': 2},
               'orb': {'BadOperation': 2, 'PolicyViolation': 2}}

LEDGER_TOTALS = {'cpu_us': 149305,
                 'errors': 8,
                 'events': 18,
                 'requests': 17,
                 'spans': 23,
                 'wal_appends': 3}

LEDGER_ENTRIES = {'-|-|obs|span': {'spans': 23},
                  'flood|-|http|/status': {'cpu_us': 40059,
                                           'errors': 2,
                                           'events': 3,
                                           'requests': 3},
                  'flood|-|orb|ping': {'cpu_us': 12042,
                                       'errors': 2,
                                       'events': 2,
                                       'requests': 2},
                  'peer|-|channel|RegisterMessage': {'cpu_us': 6012,
                                                     'errors': 1,
                                                     'events': 2,
                                                     'requests': 2,
                                                     'wal_appends': 2},
                  'peer|-|http|/cached': {'cpu_us': 12020, 'events': 1, 'requests': 1},
                  'peer|-|http|/master/apps': {'cpu_us': 12021,
                                               'errors': 1,
                                               'events': 1,
                                               'requests': 1},
                  'peer|-|http|/master/login': {'cpu_us': 12023,
                                                'events': 2,
                                                'requests': 1,
                                                'wal_appends': 1},
                  'peer|-|http|/nowhere': {'cpu_us': 12020, 'events': 1, 'requests': 1},
                  'peer|-|http|/status': {'cpu_us': 16019, 'events': 1, 'requests': 1},
                  'peer|-|orb|no_such_op': {'cpu_us': 12042,
                                            'errors': 2,
                                            'events': 2,
                                            'requests': 2},
                  'peer|-|orb|ping': {'cpu_us': 12042, 'events': 2, 'requests': 2},
                  'peer|solo#a1|channel|ControlMessage': {'cpu_us': 3005,
                                                          'events': 1,
                                                          'requests': 1}}

HEAVY_HITTERS = {'cpu_us': [['peer', 97204, 0], ['flood', 52101, 0]],
                 'errors': [['flood', 4, 0], ['peer', 4, 0]],
                 'events': [['peer', 13, 0], ['flood', 5, 0]],
                 'requests': [['peer', 12, 0], ['flood', 5, 0]],
                 'spans': [['-', 23, 0]],
                 'wal_appends': [['peer', 3, 0]]}

#: in capture order but for one pair: the oneway ``no_such_op`` and the
#: first ``RegisterMessage`` land at ``solo`` in the same instant, and the
#: ORB's handler port starts ``_serve`` in the frame's arrival slot, so it
#: queues for the CPU before the daemon, whose ``StoreGet`` for the
#: registration fires only after that instant's remaining arrivals (the
#: captured order had the ORB's listener loop take the frame from its
#: inbox behind the daemon)
SPANS = [('/status', 'http', 'ok', '', None),
         ('/master/apps', 'http', 'error', "KeyError: 'client_id'", None),
         ('/nowhere', 'http', 'ok', '', None),
         ('/cached', 'http', 'ok', '', None),
         ('ping', 'orb', 'ok', '', 'giop.ping'),
         ('giop.ping', 'orb-client', 'ok', '', None),
         ('no_such_op', 'orb', 'error',
          'BadOperation: DiscoverCorbaServerServant has no operation '
          "'no_such_op'",
          'giop.no_such_op'),
         ('giop.no_such_op', 'orb-client', 'error',
          'BadOperation: DiscoverCorbaServer.no_such_op: '
          "DiscoverCorbaServerServant has no operation 'no_such_op'",
          None),
         ('giop.ping', 'orb-client', 'ok', '', None),
         ('giop.no_such_op', 'orb-client', 'ok', '', None),
         ('ping', 'orb', 'ok', '', 'giop.ping'),
         ('no_such_op', 'orb', 'error',
          'BadOperation: DiscoverCorbaServerServant has no operation '
          "'no_such_op'",
          'giop.no_such_op'),
         ('RegisterMessage', 'channel', 'ok', '', None),
         ('RegisterMessage', 'channel', 'error',
          'SecurityError: authentication failed', None),
         ('ControlMessage', 'channel', 'ok', '', None),
         ('/master/login', 'http', 'ok', '', None),
         ('/status', 'http', 'ok', '', None),
         ('/status', 'http', 'error',
          "PolicyViolation: 'flood' exceeded its resource policy", None),
         ('/status', 'http', 'error',
          "PolicyViolation: 'flood' exceeded its resource policy", None),
         ('giop.ping', 'orb-client', 'ok', '', None),
         ('giop.ping', 'orb-client', 'ok', '', None),
         ('ping', 'orb', 'error',
          "PolicyViolation: 'flood' exceeded its resource policy", 'giop.ping'),
         ('ping', 'orb', 'error',
          "PolicyViolation: 'flood' exceeded its resource policy", 'giop.ping')]

SERIES = {'pipeline.errors.channel': {'0': 1.0},
          'pipeline.errors.http': {'0': 1.0, '2': 2.0},
          'pipeline.errors.orb': {'0': 2.0, '2': 2.0},
          'pipeline.latency.channel': {'0': {'buckets': {},
                                             'count': 3,
                                             'exemplars': {},
                                             'max': 0.0,
                                             'min': 0.0,
                                             'total': 0.0,
                                             'zero': 3}},
          'pipeline.latency.http': {'0': {'buckets': {},
                                          'count': 4,
                                          'exemplars': {},
                                          'max': 0.0,
                                          'min': 0.0,
                                          'total': 0.0,
                                          'zero': 4},
                                    '2': {'buckets': {'-48': 1},
                                          'count': 4,
                                          'exemplars': {'-48': 16},
                                          'max': 0.017000000000000015,
                                          'min': 0.0,
                                          'total': 0.017000000000000015,
                                          'zero': 3}},
          'pipeline.latency.orb': {'0': {'buckets': {},
                                         'count': 4,
                                         'exemplars': {},
                                         'max': 0.0,
                                         'min': 0.0,
                                         'total': 0.0,
                                         'zero': 4},
                                   '2': {'buckets': {},
                                         'count': 2,
                                         'exemplars': {},
                                         'max': 0.0,
                                         'min': 0.0,
                                         'total': 0.0,
                                         'zero': 2}},
          'storage.wal_appends': {'0': 2.0, '2': 1.0}}


@pytest.fixture(scope="module")
def mix():
    return run_mix()


def test_every_way_of_completing_is_in_the_mix(mix):
    assert mix["outcomes"] == OUTCOMES


def test_pipeline_metrics_snapshot_and_error_types(mix):
    assert mix["metrics"] == METRICS
    assert mix["error_types"] == ERROR_TYPES


def test_ledger_snapshot(mix):
    """The whole snapshot: every dimension is modelled work, so nothing
    is left out (the literals omit only zero counts)."""
    assert mix["ledger_dimensions"] == list(ALL_DIMENSIONS)
    assert mix["ledger_totals"] == LEDGER_TOTALS
    assert mix["ledger_entries"] == LEDGER_ENTRIES
    assert mix["heavy_hitters"] == HEAVY_HITTERS


def test_span_list(mix):
    assert mix["spans"] == SPANS


def test_time_series_points(mix):
    assert mix["series"] == SERIES


def test_every_book_counts_each_request_once(mix):
    """The metrics, the latency histogram, the ledger and the server-side
    spans each write a request down once, so their counts agree per plane;
    errors agree across the metrics, the error series and the ledger."""
    requests, errors, series = {}, {}, mix["series"]
    for plane, (n_requests, n_errors) in mix["counted"].items():
        ledger = [vec for key, vec in mix["ledger_entries"].items()
                  if key.split("|")[2] == plane]
        requests[plane] = {
            n_requests,
            sum(bucket["count"] for bucket
                in series[f"pipeline.latency.{plane}"].values()),
            sum(vec.get("requests", 0) for vec in ledger),
            sum(1 for span in mix["spans"] if span[1] == plane)}
        errors[plane] = {
            n_errors,
            sum(series.get(f"pipeline.errors.{plane}", {}).values()),
            sum(vec.get("errors", 0) for vec in ledger)}
    assert requests == {"http": {8}, "orb": {6}, "channel": {3}}
    assert errors == {"http": {3}, "orb": {4}, "channel": {1}}
