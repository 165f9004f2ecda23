#!/usr/bin/env python
"""List (and exit 1 on) each def or class under ``src/`` whose name no
bare name, attribute, import or string constant (servants dispatch by
string) under :data:`DIRS` mentions.  ``tests/`` is not among them: a def
only a test reaches is a second surface kept correct for nobody, so it
is reported unless :data:`EXEMPT` names it.  A package's ``__init__``
re-exporting its own submodule's name (the import alias and the
``__all__`` string) is not a use: a class only its package re-exports is
still unreferenced.

Usage: python tools/check_unreferenced.py [repo_root]
"""

import ast
import re
import sys
from pathlib import Path

DIRS = ("src", "tools", "perf", "examples")
#: dunders, and the defs only tests name on purpose (each a seam or a probe)
EXEMPT = re.compile(r"""__\w+__
    # test seams that observe the send path
    | set_encode_hook | set_object_walk_hook
    # the name the encoded_size(x) == len(encode(x)) property tests pin
    | encoded_size
    # CI's trace round-trip step calls it
    | tree_signature
    # with step(), the kernel's single-event probe ("nothing scheduled")
    | peek
    # the per-type error tally the envelope and admission tests pin
    | error_types""", re.VERBOSE)


def own_reexports(tree: ast.Module, package: str) -> set:
    """The alias and ``__all__`` string nodes by which a package's
    ``__init__`` re-exports names from itself or its submodules."""
    skip = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (
                node.level or f"{node.module}.".startswith(f"{package}.")):
            skip.update(node.names)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            skip.update(ast.walk(node.value))
    return skip


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1]
    defined, referenced = [], set()
    for path in sorted(p for d in DIRS for p in (root / d).rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text(), filename=rel)
        skip = set()
        if path.name == "__init__.py":
            parts = path.parent.relative_to(root).parts
            skip = own_reexports(tree, ".".join(parts[parts[0] == "src":]))
        for node in ast.walk(tree):
            if node in skip:
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if rel.startswith("src/"):
                    defined.append((node.name, f"{rel}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant):
                referenced.add(node.value)
    unused = [f"{where}: {name} is never referenced" for name, where in defined
              if name not in referenced and not EXEMPT.fullmatch(name)]
    print(*unused, f"{len(unused)} unreferenced definitions in src/", sep="\n")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
