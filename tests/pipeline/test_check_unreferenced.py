"""``tools/check_unreferenced.py`` on throw-away trees: a package's own
``__init__`` re-export is not a use, nor is a test's; only the exempt
names pass unreferenced."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[2]
sys.path.insert(0, str(ROOT / "tools"))
try:
    import check_unreferenced
finally:
    sys.path.pop(0)


def write_package(root: Path, import_line: str) -> None:
    pkg = root / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "widget.py").write_text("class Widget:\n    pass\n")
    (pkg / "__init__.py").write_text(f'{import_line}\n\n__all__ = ["Widget"]\n')


@pytest.mark.parametrize("import_line", ["from pkg.widget import Widget",
                                         "from .widget import Widget"])
def test_a_class_only_its_package_reexports_is_flagged(tmp_path, capsys,
                                                       import_line):
    write_package(tmp_path, import_line)
    assert check_unreferenced.main(["", str(tmp_path)]) == 1
    assert ("src/pkg/widget.py:1: Widget is never referenced"
            in capsys.readouterr().out)


def test_a_class_only_a_test_uses_is_flagged(tmp_path, capsys):
    write_package(tmp_path, "from pkg.widget import Widget")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_widget.py").write_text(
        "from pkg import Widget\n\n\ndef test_widget():\n    Widget()\n")
    assert check_unreferenced.main(["", str(tmp_path)]) == 1
    assert ("src/pkg/widget.py:1: Widget is never referenced"
            in capsys.readouterr().out)


def write_module(root: Path, source: str) -> None:
    pkg = root / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(source)
    (root / "tools").mkdir()
    (root / "tools" / "use.py").write_text("from pkg.mod import Agent\n")


def test_an_exempt_name_is_not_flagged(tmp_path, capsys):
    write_module(tmp_path, "class Agent:\n"
                           "    def peek(self):\n        pass\n\n"
                           "    def __repr__(self):\n        return ''\n")
    assert check_unreferenced.main(["", str(tmp_path)]) == 0
    assert "0 unreferenced definitions" in capsys.readouterr().out


def test_a_cmd_handler_nobody_names_is_flagged(tmp_path, capsys):
    write_module(tmp_path, "class Agent:\n"
                           "    def _cmd_stop(self):\n        pass\n")
    assert check_unreferenced.main(["", str(tmp_path)]) == 1
    assert ("src/pkg/mod.py:2: _cmd_stop is never referenced"
            in capsys.readouterr().out)
