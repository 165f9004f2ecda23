"""ORB-plane admission via the request pipeline (§6.3 enforcement point)."""

from repro.core.policies import PolicyManager, ResourcePolicy
from repro.metrics import PipelineMetrics
from repro.net import Network
from repro.obs import RequestCostLedger
from repro.orb import Orb, RemoteException
from repro.pipeline import PLANE_ORB, Interceptor, Pipeline
from repro.pipeline.interceptors import (AdmissionInterceptor,
                                         default_pipeline)
from repro.sim import Simulator
from tests.conftest import drive


class Echo:
    def __init__(self):
        self.calls = 0

    def echo(self, x):
        self.calls += 1
        return x


class Recording(Interceptor):
    name = "recording"

    def __init__(self):
        self.seen = []

    def before(self, ctx):
        self.seen.append((ctx.principal, ctx.operation, ctx.size))


def make_pair():
    sim = Simulator()
    net = Network(sim)
    net.add_host("caller")
    net.add_host("callee")
    net.add_link("caller", "callee", 0.001)
    corb = Orb(net.hosts["caller"])
    sorb = Orb(net.hosts["callee"])
    ref = sorb.activate(Echo(), key="echo")
    return sim, corb, sorb, ref


def append_to(orb, interceptor):
    """Give ``orb`` its chain plus ``interceptor`` at the end."""
    orb.pipeline = Pipeline(orb.pipeline.interceptors + (interceptor,),
                            clock=orb.pipeline.clock)


def echo_calls(sorb):
    return sorb.adapter.servant("echo").calls


def test_interceptor_sees_principal_operation_size():
    sim, corb, sorb, ref = make_pair()
    rec = Recording()
    append_to(sorb, rec)

    def caller():
        return (yield from corb.invoke(ref, "echo", 42))

    assert drive(sim, caller()) == 42
    assert len(rec.seen) == 1
    principal, op, size = rec.seen[0]
    assert principal == "caller"
    assert op == "echo"
    assert size > 0


def test_rejection_becomes_remote_exception():
    sim, corb, sorb, ref = make_pair()

    class Denied(Exception):
        pass

    class Deny(Interceptor):
        def before(self, ctx):
            raise Denied(f"{ctx.principal} not welcome")

    append_to(sorb, Deny())

    def caller():
        try:
            yield from corb.invoke(ref, "echo", 1)
        except RemoteException as exc:
            return exc.exc_type

    assert drive(sim, caller()) == "Denied"


def test_admission_applies_to_oneway_too():
    # The pre-pipeline ORB only guarded two-way calls via its admission
    # attribute; both paths now dispatch through the same chain, so token
    # buckets drain on oneway traffic as well.
    sim, corb, sorb, ref = make_pair()
    policies = PolicyManager()
    policies.set_policy("caller", ResourcePolicy(max_requests_per_s=1.0,
                                                 burst_seconds=1.0))
    append_to(sorb, AdmissionInterceptor(policies))
    for _ in range(5):
        corb.invoke_oneway(ref, "echo", 1)
    sim.run()
    # all five arrive within the one-token burst: one is admitted and
    # reaches the servant, the bucket sheds the other four
    assert echo_calls(sorb) == 1


def test_shed_oneway_is_still_recorded():
    # Recording sits ahead of admission, so the calls the bucket sheds —
    # oneway ones, which have no reply to carry the error — still count
    # against their principal in the metrics and in the ledger.
    sim, corb, sorb, ref = make_pair()
    policies = PolicyManager()
    policies.set_policy("caller", ResourcePolicy(max_requests_per_s=1.0,
                                                 burst_seconds=1.0))
    metrics = PipelineMetrics()
    ledger = RequestCostLedger(sim)
    sorb.pipeline = default_pipeline(
        clock=lambda: sim.now, metrics=metrics, policies=policies,
        accounting=ledger)
    for _ in range(5):
        corb.invoke_oneway(ref, "echo", 1)
    sim.run()
    shed = 5 - echo_calls(sorb)
    assert shed >= 1
    assert metrics.requests(PLANE_ORB) == 5
    assert metrics.error_types(PLANE_ORB) == {"PolicyViolation": shed}
    vec = ledger.entries[("caller", "-", PLANE_ORB, "echo")].as_dict()
    assert (vec["requests"], vec["errors"]) == (5, shed)


def test_oneway_and_twoway_share_the_same_chain():
    sim, corb, sorb, ref = make_pair()
    rec = Recording()
    append_to(sorb, rec)
    corb.invoke_oneway(ref, "echo", 1)

    def caller():
        return (yield from corb.invoke(ref, "echo", 2))

    assert drive(sim, caller()) == 2
    assert [op for _, op, _ in rec.seen] == ["echo", "echo"]


def test_default_pipeline_admits_everything():
    sim, corb, sorb, ref = make_pair()
    assert not any(isinstance(interceptor, AdmissionInterceptor)
                   for interceptor in sorb.pipeline.interceptors)

    def caller():
        return (yield from corb.invoke(ref, "echo", "ok"))

    assert drive(sim, caller()) == "ok"
