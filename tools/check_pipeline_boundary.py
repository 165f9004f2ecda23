#!/usr/bin/env python
"""Lint: architectural boundaries the refactors carved out must hold.

Each rule of :data:`RULES` says *where* it applies (``only`` these paths,
or everywhere outside its ``owner``), *what* it matches (matchers from
the vocabulary below, each tagged with the node types it inspects) and
*why*, in the advice printed with a hit.  :func:`scan` walks a file once
and offers each node to the rules that apply there.

The **facade** rule reads each owner's boundary from its ``__all__``
(:data:`FACADES`).  Outside the owner, code imports no submodule of it,
imports from it only names in ``__all__``, and names (bare, attribute or
from-import) no public top-level name the owner defines but does not
export, so a new internal is private with no lint edit.  Each owner is a
boundary of its own, so the six rules print eleven boundaries OK.

Usage: python tools/check_pipeline_boundary.py [repo_root]
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: dispatch-plane modules, relative to the repo root
DISPATCH_MODULES = ("src/repro/web/container.py", "src/repro/orb/core.py",
                    "src/repro/core/daemon.py")
IMPORTS, NAMES = (ast.Import, ast.ImportFrom), (ast.Name, ast.Attribute)


# -- matchers: each maps one AST node to the leaks it shows ("what" strings)

def on(*types):
    """Tag a matcher with the node types :func:`scan` offers it."""
    def tag(match):
        match.types = types
        return match
    return tag


def imports_of(*banned):
    """``import m`` / ``from m import`` of a banned module or below it."""
    @on(*IMPORTS)
    def match(node):
        modules = ([alias.name for alias in node.names]
                   if isinstance(node, ast.Import) else [node.module or ""])
        return [f"imports {module}" for module in modules
                if any(module == b or module.startswith(b + ".")
                       for b in banned)]
    return match


def naming(*names, defs=False):
    """Exact names, bare or attribute (with ``defs``, also a def's name)."""
    names = frozenset(names)
    @on(*NAMES, *((ast.FunctionDef, ast.AsyncFunctionDef) if defs else ()))
    def match(node):
        found = getattr(node, "id", None) or getattr(node, "attr", None) \
            or node.name
        return (f"uses {found!r}",) if found in names else ()
    return match


def facade(owner, exported, internal):
    """Outside ``owner``: no submodule import, no ``from owner import``
    of a name outside ``exported``, no use of an ``internal`` name."""
    below, uses = owner + ".", naming(*internal)
    @on(*IMPORTS, *NAMES)
    def match(node):
        if isinstance(node, ast.Import):
            return [f"imports {alias.name}" for alias in node.names
                    if alias.name.startswith(below)]
        if not isinstance(node, ast.ImportFrom):
            return uses(node)
        module = node.module or ""
        hits = [f"imports from {module}"] if module.startswith(below) else []
        return hits + [f"imports {alias.name}" for alias in node.names
                       if alias.name in internal
                       or (module == owner and alias.name not in exported)]
    return match


@on(ast.Call)
def app_id_split(node):
    if (isinstance(node.func, ast.Attribute) and node.func.attr == "split"
            and node.args and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "#"):
        return ('calls .split("#")',)
    return ()


@on(ast.Call)
def file_open(node):
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        return ("calls open()",)
    if (isinstance(func, ast.Attribute) and func.attr == "open"
            and isinstance(func.value, ast.Name) and func.value.id == "io"):
        return ("calls io.open()",)
    return ()


@dataclass(frozen=True)
class Rule:
    matchers: tuple
    advice: str
    #: path prefixes the rule is confined to ...
    only: tuple = ()
    #: ... or the packages (``dir/``) and modules it exempts
    owner: tuple = ()

    def applies(self, rel: str) -> bool:
        if self.only:
            return rel.startswith(self.only)
        return not rel.startswith(self.owner)


#: the facade rule's owners, each bounded by its ``__all__`` -> extra matchers
FACADES = {
    "repro.obs": (),
    "repro.obs.timeseries": (),
    "repro.obs.accounting": (),
    "repro.health": (),
    # only the directory routes keys and parses app ids (home_server_of)
    "repro.directory": (naming("shard_of", "replicas_of", "StaleRingEpoch"),
                        app_id_split),
    "repro.storage": (),
}

RULES = {
    "pipeline": Rule(
        (imports_of("repro.core.security", "repro.core.policies"),),
        "security/policy code must flow through repro.pipeline interceptors",
        only=DISPATCH_MODULES),
    "federation": Rule(
        (naming("is_local_app", "peer_stub", "proxy_stub", defs=True),),
        "local-vs-remote routing must flow through repro.federation "
        "(router.resolve)",
        owner=("src/repro/federation/",)),
    "facade": FACADES,
    "core-io": Rule(
        (file_open,),
        "no direct file I/O in repro.core; durable bytes go through a "
        "repro.storage backend",
        only=("src/repro/core/",)),
    "scope": Rule(
        (naming("scope_span", "scope_cost_key"),),
        "the scope slots belong to repro.sim, the Tracer and the "
        "RequestCostLedger; read and open scopes through their API",
        owner=("src/repro/sim/", "src/repro/obs/tracer.py",
               "src/repro/obs/accounting.py")),
    "peer-outcome": Rule(
        (naming("note_call", defs=True),),
        "a peer call is booked once, by PeerRegistry.call or "
        "DirectoryClient._call; do not book its outcome again",
        owner=("src/repro/federation/registry.py",
               "src/repro/directory/client.py", "src/repro/health/")),
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def owner_rule(root: Path, owner: str, extra: tuple) -> Rule:
    """The facade rule for ``owner``: its ``__all__`` is exported, and
    every other public top-level name its files define is internal."""
    home = root / "src" / Path(*owner.split("."))
    home = home if home.is_dir() else home.with_suffix(".py")
    front = home / "__init__.py" if home.is_dir() else home
    exported, defined = set(), set()
    for file in home.rglob("*.py") if home.is_dir() else [front]:
        for node in parse(file).body if file.exists() else ():
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = {n.id for t in getattr(node, "targets", ())
                         or [node.target] for n in ast.walk(t)
                         if isinstance(n, ast.Name)}
                if file == front and names == {"__all__"}:
                    exported = set(ast.literal_eval(node.value))
                defined |= names
    internal = {n for n in defined - exported if not n.startswith("_")}
    return Rule((facade(owner, exported, internal), *extra),
                f"internal to {owner}; use what its __all__ exports",
                owner=(home.relative_to(root).as_posix()
                       + "/" * home.is_dir(),))


def boundaries(root: Path = ROOT, keys=RULES) -> dict:
    """Boundary -> Rule for ``keys``; each facade owner is a boundary."""
    rules = {}
    for key in keys:
        rules.update({owner.rpartition(".")[2]: owner_rule(root, owner, extra)
                      for owner, extra in FACADES.items()}
                     if key == "facade" else {key: RULES[key]})
    return rules


def scan(tree: ast.AST, rules: dict) -> list:
    """(lineno, what, boundary) of every hit of ``rules``: one walk."""
    by_type = {}
    for name, rule in rules.items():
        for match in rule.matchers:
            for node_type in match.types:
                by_type.setdefault(node_type, []).append((name, match))
    return [(node.lineno, what, name)
            for node in ast.walk(tree)
            for name, match in by_type.get(type(node), ())
            for what in match(node)]


def leaks(rule: str, path: Path, rel: str = "", root: Path = ROOT) -> list:
    """Sorted (lineno, what) hits of ``rule`` in ``path`` (at ``rel``)."""
    rules = {name: r for name, r in boundaries(root, [rule]).items()
             if not rel or r.applies(rel)}
    return sorted({hit[:2] for hit in scan(parse(path), rules)})


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else ROOT
    rules = boundaries(root)
    failures = [f"{rel}: missing" for rule in rules.values()
                for rel in rule.only + rule.owner if not (root / rel).exists()]
    checked = dict.fromkeys(rules, 0)
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        applying = {n: rule for n, rule in rules.items() if rule.applies(rel)}
        for name in applying:
            checked[name] += 1
        failures.extend(f"{rel}:{lineno}: {what} — {rules[name].advice}"
                        for lineno, what, name in scan(parse(path), applying))
    if failures:
        print("boundary violations:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    print("; ".join(f"{name} boundary OK ({n} modules clean)"
                    for name, n in checked.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
