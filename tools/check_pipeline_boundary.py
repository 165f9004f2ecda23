#!/usr/bin/env python
"""Lint: architectural boundaries the refactors carved out must hold.

One rule table (:data:`RULES`), one AST walker (:func:`leaks`).  A rule
says *where* it applies (``only`` these paths, or everywhere outside the
``owner`` package/module), *what* it matches (a tuple of node matchers
from the small vocabulary below) and the ``advice`` printed with a hit.
Ten boundaries, eleven rules (the storage boundary has two):

1. **pipeline** — the three dispatch planes (``repro.web.container``,
   ``repro.orb.core``, ``repro.core.daemon``) route requests;
   cross-cutting concerns live in :mod:`repro.pipeline.interceptors`.
   Importing ``repro.core.security`` or ``repro.core.policies`` from a
   dispatch module re-inlines a concern the pipeline refactor pulled out.

2. **federation** — location/routing concerns live in
   :mod:`repro.federation`.  Referencing ``is_local_app`` / ``peer_stub``
   / ``proxy_stub`` anywhere else (attribute, bare name or definition —
   exact names only, so ``remote_proxy_stub`` stays legal) re-inlines the
   local-vs-remote branching collapsed into ``router.resolve(app_id)``.

3. **obs** — only :mod:`repro.obs` may construct spans or read span
   internals; everything else goes through the ``Tracer`` API (the facade
   ``from repro.obs import ...`` is fine).  Importing an obs *submodule*
   or naming ``Span`` / ``TraceContext`` / ``SpanNode`` outside the
   package couples callers to the span representation.

4. **health** — status folding lives in :mod:`repro.health`; callers
   consult the :class:`HealthMonitor` query API, never the hysteresis
   machinery.  No health *submodule* imports, no ``ComponentHealth`` /
   ``HealthModel`` outside the package.

5. **directory** — key→shard routing and app-id structure live in
   :mod:`repro.directory`.  Outside the package: no directory *submodule*
   imports, no ring/shard internals (``HashRing`` / ``shard_of`` / ...),
   and no ``.split("#")`` — parsing an app id anywhere else re-inlines
   the placement policy ``home_server_of`` made pluggable.

6. **storage** — WAL/snapshot internals live in :mod:`repro.storage`.
   Outside the package: no storage *submodule* imports and no naming of
   ``WriteAheadLog`` / ``WalRecord`` — planes journal through
   :class:`StateJournal` and recover through ``recover()``.  Its second
   rule, **core-io**: ``repro.core`` must not ``open()`` files at all
   (nor ``io.open``) — durability is the storage backend's business, so
   direct file I/O from a core plane is a WAL bypass.

7. **timeseries** — metric bucketing lives in
   :mod:`repro.obs.timeseries`.  Outside that one module, naming or
   importing ``LogHistogram`` / ``TimeSeries`` couples emitters to the
   storage representation — they record through the
   :class:`TimeSeriesRegistry` facade and read through ``query()``.

8. **accounting** — cost representation lives in
   :mod:`repro.obs.accounting`.  Outside that one module, naming or
   importing ``CostVector`` couples a caller to the ledger's
   internals — callers use the :class:`RequestCostLedger` API.

9. **scope** — a request's ambient scope rides on its process: the
   ``scope_span`` / ``scope_cost_key`` slots of ``Process`` and
   ``Simulator``.  Only :mod:`repro.sim` (which declares them),
   :mod:`repro.obs.tracer` and :mod:`repro.obs.accounting` (which own
   what is in them) may name the slots; everyone else goes through the
   ``Tracer`` / ``RequestCostLedger`` API, so the scope cannot turn into
   a global variable other layers write.

10. **peer-outcome** — a peer call's outcome is booked once, by the one
    liveness rule ``HealthMonitor.note_call``.  Only the two places that
    make peer calls (``PeerRegistry.call`` in
    :mod:`repro.federation.registry` and ``DirectoryClient._call`` in
    :mod:`repro.directory.client`) and :mod:`repro.health` itself may
    name it; a poller or handle that books an outcome again would count
    one call twice.

Usage: python tools/check_pipeline_boundary.py [repo_root]
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

#: dispatch-plane modules, relative to the repo root
DISPATCH_MODULES = (
    "src/repro/web/container.py",
    "src/repro/orb/core.py",
    "src/repro/core/daemon.py",
)


# -- matchers: each maps one AST node to the leaks it shows ("what" strings)

def imports_of(*banned):
    """``import m`` / ``from m import`` of a banned module or below it."""
    def match(node):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            return
        for module in modules:
            if any(module == b or module.startswith(b + ".") for b in banned):
                yield f"imports {module}"
    return match


def submodules_of(package):
    """Importing below the facade: ``repro.obs.span``, not ``repro.obs``."""
    def match(node):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(package + "."):
                    yield f"imports {alias.name}"
        elif (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith(package + ".")):
            yield f"imports from {node.module}"
    return match


def naming(*names, defs=False, imported=False):
    """Exact names as a bare name or attribute — with ``defs`` also as a
    function definition, with ``imported`` also in a ``from`` import."""
    def match(node):
        if isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            found = [node.attr]
        elif defs and isinstance(node, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
            found = [node.name]
        elif imported and isinstance(node, ast.ImportFrom):
            yield from (f"imports {alias.name}" for alias in node.names
                        if alias.name in names)
            return
        else:
            return
        yield from (f"uses {name!r}" for name in found if name in names)
    return match


def split_on(separator):
    def match(node):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "split" and node.args
                and isinstance(node.args[0], ast.Constant)
                and node.args[0].value == separator):
            yield f'calls .split("{separator}")'
    return match


def file_open(node):
    if not isinstance(node, ast.Call):
        return
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        yield "calls open()"
    elif (isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Name) and func.value.id == "io"):
        yield "calls io.open()"


@dataclass(frozen=True)
class Rule:
    matchers: tuple
    advice: str
    #: the summary clause printed when the rule is clean (``{n}`` modules)
    summary: str
    #: path prefixes the rule is confined to ...
    only: tuple = ()
    #: ... or the package (``dir/``) or module it exempts (or a tuple)
    owner: "str | tuple" = ""

    def applies(self, rel: str) -> bool:
        if self.only:
            return rel.startswith(self.only)
        return not rel.startswith(self.owner)


def _facade(package, internals, advice, *extra, end="); "):
    """The common shape: outside ``package`` neither import its
    submodules nor name its ``internals``."""
    name = package.rpartition(".")[2]
    return Rule((submodules_of(package), naming(*internals), *extra), advice,
                f"{name} boundary OK ({{n}} modules clean{end}",
                owner=f"src/{package.replace('.', '/')}/")


RULES = {
    "pipeline": Rule(
        (imports_of("repro.core.security", "repro.core.policies"),),
        "security/policy code must flow through repro.pipeline interceptors",
        "pipeline boundary OK ({n} dispatch modules clean); ",
        only=DISPATCH_MODULES),
    "federation": Rule(
        (naming("is_local_app", "peer_stub", "proxy_stub", defs=True),),
        "local-vs-remote routing must flow through repro.federation "
        "(router.resolve)",
        "federation boundary OK ({n} modules clean); ",
        owner="src/repro/federation/"),
    "obs": _facade(
        "repro.obs", ("Span", "TraceContext", "SpanNode"),
        "span internals stay in repro.obs; use the Tracer API via the "
        "facade"),
    "health": _facade(
        "repro.health", ("ComponentHealth", "HealthModel"),
        "status folding stays in repro.health; use the HealthMonitor "
        "query API"),
    "directory": _facade(
        "repro.directory",
        ("HashRing", "DirectoryShardServant", "DIRECTORY_SHARD",
         "StaleRingEpoch", "shard_of", "replicas_of"),
        "ring/placement internals stay in repro.directory; use "
        "DirectoryClient / home_server_of",
        split_on("#")),
    "storage": _facade(
        "repro.storage", ("WriteAheadLog", "WalRecord"),
        "WAL/snapshot internals stay in repro.storage; journal through "
        "StateJournal and recover()",
        end=", "),  # the core-io clause closes the parenthesis
    "core-io": Rule(
        (file_open,),
        "no direct file I/O in repro.core; durable bytes go through a "
        "repro.storage backend",
        "{n} core modules I/O-free); ",
        only=("src/repro/core/",)),
    "timeseries": Rule(
        (naming("LogHistogram", "TimeSeries", imported=True),),
        "bucket/series internals stay in repro.obs.timeseries; emitters "
        "use the TimeSeriesRegistry facade",
        "time-series boundary OK ({n} modules clean); ",
        owner="src/repro/obs/timeseries.py"),
    "accounting": Rule(
        (naming("CostVector", imported=True),),
        "cost-vector internals stay in repro.obs.accounting; "
        "callers use the RequestCostLedger facade",
        "accounting boundary OK ({n} modules clean); ",
        owner="src/repro/obs/accounting.py"),
    "scope": Rule(
        (naming("scope_span", "scope_cost_key"),),
        "the scope slots belong to repro.sim, the Tracer and the "
        "RequestCostLedger; read and open scopes through their API",
        "scope boundary OK ({n} modules clean); ",
        owner=("src/repro/sim/", "src/repro/obs/tracer.py",
               "src/repro/obs/accounting.py")),
    "peer-outcome": Rule(
        (naming("note_call", defs=True),),
        "a peer call is booked once, by PeerRegistry.call or "
        "DirectoryClient._call; do not book its outcome again",
        "peer-outcome boundary OK ({n} modules clean)",
        owner=("src/repro/federation/registry.py",
               "src/repro/directory/client.py", "src/repro/health/")),
}


def _walk(rule: Rule, tree: ast.AST) -> list:
    return [(node.lineno, what)
            for node in ast.walk(tree)
            for match in rule.matchers
            for what in match(node)]


def leaks(rule: str, path: Path) -> list:
    """(lineno, what) for every node of ``path`` the named rule matches."""
    return _walk(RULES[rule], ast.parse(path.read_text(), filename=str(path)))


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    failures = [f"{rel}: dispatch module missing"
                for rel in DISPATCH_MODULES if not (root / rel).exists()]
    checked = dict.fromkeys(RULES, 0)
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, rule in RULES.items():
            if rule.applies(rel):
                checked[name] += 1
                failures.extend(f"{rel}:{lineno}: {what} — {rule.advice}"
                                for lineno, what in _walk(rule, tree))
    if failures:
        print("pipeline boundary violations:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("".join(rule.summary.format(n=checked[name])
                  for name, rule in RULES.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
