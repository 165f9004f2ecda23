"""The CI boundary lint must hold on the checked-in tree, and catch what
it is for on fixtures."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[2]
sys.path.insert(0, str(ROOT / "tools"))
try:
    import check_pipeline_boundary as lint
finally:
    sys.path.pop(0)

BOUNDARIES = ("pipeline", "federation", "obs", "timeseries", "accounting",
              "health", "directory", "storage", "core-io", "scope",
              "peer-outcome")


def test_dispatch_modules_do_not_import_security_or_policies():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_pipeline_boundary.py"),
         str(ROOT)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for boundary in BOUNDARIES:
        assert f"{boundary} boundary OK" in proc.stdout


def test_federation_lint_catches_stub_usage(tmp_path):
    """The lint flags is_local_app/peer_stub/proxy_stub outside
    repro.federation — and only exact names (remote_proxy_stub is fine)."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def handler(server, app_id):\n"
        "    if server.is_local_app(app_id):\n"
        "        return server.proxy_stub(app_id, None)\n"
        "    return peer_stub\n")
    hits = lint.leaks("federation", bad)
    assert sorted(what for _, what in hits) == [
        "uses 'is_local_app'", "uses 'peer_stub'", "uses 'proxy_stub'"]
    ok = tmp_path / "ok.py"
    ok.write_text(
        "def handler(registry, app_id):\n"
        "    return registry.remote_proxy_stub(app_id)\n")
    assert lint.leaks("federation", ok) == []


def test_obs_lint_catches_span_internals(tmp_path):
    """The lint flags submodule imports and direct span construction;
    the facade import and the Tracer API stay legal."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.obs.span import Span\n"
        "import repro.obs.store\n"
        "def record(store):\n"
        "    store.add(Span(1, 2, None, 'op', 'http', 's', 0.0, 1.0))\n"
        "    return TraceContext(1, 2)\n")
    hits = lint.leaks("facade", bad)
    assert any("repro.obs.span" in what for _, what in hits)
    assert any("repro.obs.store" in what for _, what in hits)
    assert any("'Span'" in what for _, what in hits)
    assert any("'TraceContext'" in what for _, what in hits)
    ok = tmp_path / "ok.py"
    ok.write_text(
        "from repro.obs import SAMPLE_OFF, Tracer\n"
        "def trace(tracer, sim):\n"
        "    with tracer.span('op', plane='http', server='s'):\n"
        "        return tracer.current_context()\n")
    assert lint.leaks("facade", ok) == []


def test_storage_lint_catches_wal_internals(tmp_path):
    """The lint flags storage submodule imports and WAL-representation
    names; the facade import (StateJournal, backends) stays legal."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.storage.wal import WriteAheadLog\n"
        "import repro.storage.backends\n"
        "def rebuild(backend):\n"
        "    wal = WriteAheadLog(backend)\n"
        "    return [WalRecord.from_entry(e) for e in backend.entries()]\n")
    hits = lint.leaks("facade", bad)
    assert any("repro.storage.wal" in what for _, what in hits)
    assert any("repro.storage.backends" in what for _, what in hits)
    assert any("'WriteAheadLog'" in what for _, what in hits)
    assert any("'WalRecord'" in what for _, what in hits)
    ok = tmp_path / "ok.py"
    ok.write_text(
        "from repro.storage import MemoryBackend, StateJournal\n"
        "def build(server):\n"
        "    journal = StateJournal(MemoryBackend())\n"
        "    journal.append('db.insert', {})\n"
        "    return journal.recover()\n")
    assert lint.leaks("facade", ok) == []


def test_core_file_io_lint(tmp_path):
    """A bare open() (or io.open) in a core module is a WAL bypass."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import io\n"
        "def persist(state):\n"
        "    with open('/tmp/state.json', 'w') as fh:\n"
        "        fh.write(str(state))\n"
        "    return io.open('/tmp/log', 'a')\n")
    hits = lint.leaks("core-io", bad)
    assert sorted(what for _, what in hits) == ["calls io.open()",
                                                "calls open()"]
    ok = tmp_path / "ok.py"
    ok.write_text(
        "def persist(journal, state):\n"
        "    journal.append('db.insert', state)\n"
        "    session = mgr.open_session()\n")  # method named open is fine
    assert lint.leaks("core-io", ok) == []


def test_scope_lint_catches_the_slots_outside_their_owners(tmp_path):
    """The ambient scope is two slots on the running process; only
    repro.sim, the tracer and the ledger may name them — a layer that
    wrote one would have made the scope its global variable."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def handle(sim, key):\n"
        "    proc = sim.active_process or sim\n"
        "    proc.scope_cost_key = key\n"
        "    return proc.scope_span\n")
    hits = lint.leaks("scope", bad)
    assert sorted(what for _, what in hits) == [
        "uses 'scope_cost_key'", "uses 'scope_span'"]
    ok = tmp_path / "ok.py"
    ok.write_text(
        "def handle(server):\n"
        "    with server.ledger.scoped(server.name, plane='federation',\n"
        "                              operation='poll_round'):\n"
        "        return server.tracer.current_span()\n")
    assert lint.leaks("scope", ok) == []
    rule = lint.RULES["scope"]
    assert not rule.applies("src/repro/sim/process.py")
    assert not rule.applies("src/repro/obs/tracer.py")
    assert not rule.applies("src/repro/obs/accounting.py")
    assert rule.applies("src/repro/obs/interceptor.py")
    assert rule.applies("src/repro/net/network.py")


def test_peer_outcome_lint_catches_a_second_booking(tmp_path):
    """A peer call is booked once, where it is made: naming note_call
    outside the registry, the directory client and repro.health (a poller
    booking its relay's outcome again, say) is flagged."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "def poll(server, handle, seq):\n"
        "    try:\n"
        "        return (yield from handle.get_updates_since(seq))\n"
        "    except OrbError as exc:\n"
        "        server.health.note_call(handle.home, exc)\n"
        "        raise\n")
    hits = lint.leaks("peer-outcome", bad)
    assert [what for _, what in hits] == ["uses 'note_call'"]
    ok = tmp_path / "ok.py"
    ok.write_text(
        "def poll(server, handle):\n"
        "    return (yield from server.registry.check_peer(handle.home))\n")
    assert lint.leaks("peer-outcome", ok) == []
    rule = lint.RULES["peer-outcome"]
    assert not rule.applies("src/repro/federation/registry.py")
    assert not rule.applies("src/repro/directory/client.py")
    assert not rule.applies("src/repro/health/monitor.py")
    assert rule.applies("src/repro/federation/subscriptions.py")
    assert rule.applies("src/repro/federation/handles.py")


def test_health_lint_catches_hysteresis_internals(tmp_path):
    """Outside repro.health: no submodule import, and the hysteresis
    classes the facade does not export are not named."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import repro.health.model\n"
        "from repro.health import HealthModel\n"
        "def fold(samples):\n"
        "    return ComponentHealth('server:x').observe(samples)\n")
    assert [what for _, what in lint.leaks("facade", bad)] == [
        "imports repro.health.model", "imports HealthModel",
        "uses 'ComponentHealth'"]
    ok = tmp_path / "ok.py"
    ok.write_text(
        "from repro.health import STATUS_HEALTHY, HealthMonitor\n"
        "def healthy(monitor: HealthMonitor, peer):\n"
        "    return monitor.status_of(peer) == STATUS_HEALTHY\n")
    assert lint.leaks("facade", ok) == []


def test_directory_lint_catches_ring_internals_and_app_id_parsing(tmp_path):
    """Ring internals and app-id parsing stay in repro.directory; the
    facade (DirectoryClient, home_server_of) stays legal."""
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.directory.ring import HashRing\n"
        "def home(nodes, key, app_id):\n"
        "    ring = HashRing(nodes)\n"
        "    return ring.shard_of(key), app_id.split('#')[0]\n")
    assert [what for _, what in lint.leaks("facade", bad)] == [
        "imports HashRing", "imports from repro.directory.ring",
        "uses 'HashRing'", 'calls .split("#")', "uses 'shard_of'"]
    ok = tmp_path / "ok.py"
    ok.write_text(
        "from repro.directory import DirectoryClient, home_server_of\n"
        "def home(client: DirectoryClient, app_id):\n"
        "    return home_server_of(app_id), app_id.split('/')\n")
    assert lint.leaks("facade", ok) == []


def test_timeseries_lint_holds_inside_repro_obs(tmp_path):
    """repro.obs.timeseries is its own owner: another obs module may not
    name LogHistogram / TimeSeries, only the TimeSeriesRegistry facade."""
    store = "src/repro/obs/store.py"
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.obs.timeseries import LogHistogram, TimeSeries\n"
        "def latency(values):\n"
        "    hist = LogHistogram()\n"
        "    return hist, TimeSeries\n")
    assert [what for _, what in lint.leaks("facade", bad, rel=store)] == [
        "imports LogHistogram", "imports TimeSeries", "uses 'LogHistogram'",
        "uses 'TimeSeries'"]
    ok = tmp_path / "ok.py"
    ok.write_text(
        "from repro.obs.timeseries import TimeSeriesRegistry\n"
        "def latency(registry: TimeSeriesRegistry, ms):\n"
        "    registry.observe('latency', ms)\n"
        "    return registry.query('latency')\n")
    assert lint.leaks("facade", ok, rel=store) == []
    rule = lint.boundaries()["timeseries"]
    assert rule.applies(store)
    assert not rule.applies("src/repro/obs/timeseries.py")


def test_accounting_lint_catches_the_cost_vector(tmp_path):
    """CostVector is not in repro.obs.accounting.__all__, so even another
    obs module may not import or build one."""
    tracer = "src/repro/obs/tracer.py"
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.obs.accounting import CostVector\n"
        "def charge(entry):\n"
        "    entry.vector = CostVector()\n")
    assert [what for _, what in lint.leaks("facade", bad, rel=tracer)] == [
        "imports CostVector", "uses 'CostVector'"]
    ok = tmp_path / "ok.py"
    ok.write_text(
        "from repro.obs.accounting import RequestCostLedger\n"
        "def charge(ledger: RequestCostLedger, principal):\n"
        "    with ledger.scoped(principal, plane='http', operation='get'):\n"
        "        return ledger.top(1)\n")
    assert lint.leaks("facade", ok, rel=tracer) == []


def test_facade_makes_a_new_internal_private_without_a_rule_edit(
        tmp_path, capsys):
    """An owner's unexported top-level class is private by default: the
    lint reads the boundary from __all__, so no rule names the class."""
    health = tmp_path / "src" / "repro" / "health"
    health.mkdir(parents=True)
    (health / "__init__.py").write_text(
        "from repro.health.monitor import HealthMonitor\n"
        "__all__ = ['HealthMonitor']\n")
    (health / "monitor.py").write_text(
        "class HealthMonitor:\n    pass\n\n\nclass Hysteresis:\n    pass\n")
    web = tmp_path / "src" / "repro" / "web"
    web.mkdir()
    (web / "status.py").write_text(
        "import repro.health\n"
        "from repro.health import HealthMonitor\n"
        "def page(monitor: HealthMonitor):\n"
        "    return repro.health.Hysteresis()\n")
    assert lint.main(["lint", str(tmp_path)]) == 1
    hits = [line.strip() for line in capsys.readouterr().err.splitlines()
            if "status.py" in line]
    assert hits == ["src/repro/web/status.py:4: uses 'Hysteresis' — "
                    "internal to repro.health; use what its __all__ exports"]


@pytest.mark.parametrize("module, names", [
    ("repro.obs", ("Span", "TraceContext", "SpanNode")),
    ("repro.health", ("ComponentHealth", "HealthModel")),
    ("repro.directory", ("HashRing", "DirectoryShardServant",
                         "DIRECTORY_SHARD")),
])
def test_facades_bind_no_internal(module, names):
    for name in names:
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})


def test_timeseries_exports_no_bucket_internals():
    from repro.obs import timeseries
    assert not {"LogHistogram", "TimeSeries"} & set(timeseries.__all__)
