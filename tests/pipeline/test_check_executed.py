"""``tools/check_executed.py``'s join of the defs in a tree against the
code objects that ran, on a throw-away package."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).parents[2]
sys.path.insert(0, str(ROOT / "tools"))
try:
    import check_executed
finally:
    sys.path.pop(0)

MODULE = '''\
def deco(func):
    return func


def called():
    return 1


def uncalled():
    return 2


class Thing:
    def __repr__(self):
        return "Thing"


@deco
def decorated():
    return 3
'''


def test_only_the_uncalled_def_is_listed(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(MODULE)
    called, previous = {}, sys.getprofile()
    sys.setprofile(check_executed.profiler(called))
    try:
        spec = importlib.util.spec_from_file_location("pkg_mod",
                                                      pkg / "mod.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        module.called()
        module.decorated()
    finally:
        sys.setprofile(previous)
    assert check_executed.never_called(pkg, called.values()) == [
        "pkg/mod.py:9: uncalled"]
