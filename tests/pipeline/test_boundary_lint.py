"""The CI boundary lint must hold on the checked-in tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[2]


def test_dispatch_modules_do_not_import_security_or_policies():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "check_pipeline_boundary.py"),
         str(ROOT)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "pipeline boundary OK" in proc.stdout
    assert "federation boundary OK" in proc.stdout
    assert "obs boundary OK" in proc.stdout
    assert "storage boundary OK" in proc.stdout
    assert "peer-outcome boundary OK" in proc.stdout


def test_federation_lint_catches_stub_usage(tmp_path):
    """The lint flags is_local_app/peer_stub/proxy_stub outside
    repro.federation — and only exact names (remote_proxy_stub is fine)."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import check_pipeline_boundary as lint
    finally:
        sys.path.pop(0)
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
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import check_pipeline_boundary as lint
    finally:
        sys.path.pop(0)
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.obs.span import Span\n"
        "import repro.obs.store\n"
        "def record(store):\n"
        "    store.add(Span(1, 2, None, 'op', 'http', 's', 0.0, 1.0))\n"
        "    return TraceContext(1, 2)\n")
    hits = lint.leaks("obs", bad)
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
    assert lint.leaks("obs", ok) == []


def test_storage_lint_catches_wal_internals(tmp_path):
    """The lint flags storage submodule imports and WAL-representation
    names; the facade import (StateJournal, backends) stays legal."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import check_pipeline_boundary as lint
    finally:
        sys.path.pop(0)
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from repro.storage.wal import WriteAheadLog\n"
        "import repro.storage.backends\n"
        "def rebuild(backend):\n"
        "    wal = WriteAheadLog(backend)\n"
        "    return [WalRecord.from_entry(e) for e in backend.entries()]\n")
    hits = lint.leaks("storage", bad)
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
    assert lint.leaks("storage", ok) == []


def test_core_file_io_lint(tmp_path):
    """A bare open() (or io.open) in a core module is a WAL bypass."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import check_pipeline_boundary as lint
    finally:
        sys.path.pop(0)
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
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import check_pipeline_boundary as lint
    finally:
        sys.path.pop(0)
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
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import check_pipeline_boundary as lint
    finally:
        sys.path.pop(0)
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
