#!/usr/bin/env python
"""List (and exit 1 on) each def or class under ``src/`` whose name no
bare name, attribute, import or string constant (servants and getattr
dispatch by string) under :data:`DIRS` mentions.  Dunders and the
getattr-dispatched ``_cmd_*`` agent handlers are exempt by pattern.

Usage: python tools/check_unreferenced.py [repo_root]
"""

import ast
import re
import sys
from pathlib import Path

DIRS = ("src", "tests", "tools", "perf", "examples")
EXEMPT = re.compile(r"__\w+__|_cmd_\w+")


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parents[1]
    defined, referenced = [], set()
    for path in sorted(p for d in DIRS for p in (root / d).rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=rel)):
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
