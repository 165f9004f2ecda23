"""A pytest plugin that lists (and fails the session on) each ``def`` under
``src/repro`` that no test ran: the dynamic half of
``tools/check_unreferenced.py``, which cannot see code that is mentioned
but never called.

Every called code object is recorded with ``sys.setprofile`` and
``threading.setprofile``.  Both are installed again at the start of each
test phase, because a test that runs cProfile takes the profile hook over
and drops it when done.  At session end the defs of ``src/repro`` are read
by AST and joined to the recorded code objects on (file, first line); a
decorated def's code starts at its first decorator's line.  ``__repr__``
is exempt by name and nothing else is.

Usage: PYTHONPATH=src:tools python -m pytest -q -p check_executed
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "repro"
EXEMPT = {"__repr__"}

_called = {}  # id(code) -> code: the code objects are kept alive


def profiler(called: dict):
    """A profile hook that records each called code object in ``called``."""
    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            called[id(code)] = code
    return hook


def install() -> None:
    hook = profiler(_called)
    sys.setprofile(hook)
    threading.setprofile(hook)


def never_called(root: Path, called) -> list:
    """``file:line: name`` for each non-exempt def under ``root`` whose
    code object is not among ``called``."""
    ran = {(str(Path(code.co_filename).resolve()), code.co_firstlineno)
           for code in called}
    root = root.resolve()
    listed = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root.parent).as_posix()
        defs = [node for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in sorted(defs, key=lambda node: node.lineno):
            first = (node.decorator_list[0].lineno if node.decorator_list
                     else node.lineno)
            if (str(path), first) not in ran and node.name not in EXEMPT:
                listed.append(f"{rel}:{node.lineno}: {node.name}")
    return listed


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    install()  # before the conftests import repro and run its module code


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    install()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    install()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_teardown(item):
    install()


def pytest_sessionfinish(session, exitstatus):
    sys.setprofile(None)
    threading.setprofile(None)
    listed = never_called(SRC, _called.values())
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    write = reporter.write_line if reporter else print
    for line in listed:
        write(f"{line} is never called")
    write(f"{len(listed)} functions in src/repro never called "
          f"(__repr__ exempt)")
    if listed and session.exitstatus == 0:
        session.exitstatus = 1
