"""``tools/census.py``: its loader leaves the kernel as it found it, the
events view adds up, and each view's mismatch is exit status 1."""

import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.sim import Simulator

ROOT = Path(__file__).parents[1]
sys.path.insert(0, str(ROOT / "tools"))
try:
    import census
finally:
    sys.path.pop(0)

ARGS = ["--workload", "client_polls", "--quick"]


@pytest.fixture(autouse=True)
def own_path(monkeypatch):
    """``main`` puts ``src/`` and ``perf/`` on the path: undo it after."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    sys.path[:0] = [str(ROOT / "perf")]


def outcome(ops=1, **counters):
    return SimpleNamespace(ops=ops, counters=counters)


def test_events_sites_sum_to_the_workloads_events():
    plain_init = Simulator.__init__
    sites, done = census.run_window("client_polls", 0, 0.1,
                                    census.SiteCounter)
    assert Simulator.__init__ is plain_init
    assert sum(sites.values()) == done.counters["sim.events"] > 0
    assert any(site.startswith("Timeout -> resume") for site in sites)


def test_main_prints_the_rows_and_passes(monkeypatch, capsys):
    monkeypatch.setitem(census.VIEWS, "events", lambda args: (
        [f"{args.workload} at {args.scale}"], True))
    assert census.main(ARGS + ["--by", "events"]) == 0
    assert capsys.readouterr() == ("client_polls at 0.1\n", "")


def test_events_that_do_not_add_up_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(census, "run_window", lambda *_: (
        Counter({"Timeout -> nobody": 3}), outcome(**{"sim.events": 4})))
    assert census.main(ARGS + ["--by", "events"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("client_polls seed 0: 1 ops, 3 events")
    assert err == ("census --by events: counted 3 dispatches, the "
                   "workload's sim.events boundary says 4\n")


def test_frames_that_do_not_add_up_exit_1(monkeypatch, capsys):
    row = ('{"calls": 5, "seconds": 0.001, "window_s": 0.1, "ops": 2, '
           '"net_frames": 6}')
    children = []

    def child(argv, **_kw):
        children.append(argv[argv.index("--wrap") + 1])
        return SimpleNamespace(returncode=0, stdout=row + "\n")

    monkeypatch.setattr(subprocess, "run", child)
    assert census.main(ARGS + ["--by", "frames"]) == 1
    assert children == list(census.TARGETS)
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == ("client_polls seed 0: 2 ops, 6 frame "
                                   "hops (net.frames), 5 frames sent")
    assert err == ("census --by frames: saw 5 hop arrivals, the workload's "
                   "net.frames boundary says [6]\n")


def test_retained_that_does_not_add_up_exits_1(monkeypatch, capsys):
    def frame(path):
        return SimpleNamespace(filename=str(ROOT / path))

    class Snapshot:
        def __init__(self, *sizes):
            self.traces = [SimpleNamespace(size=size) for size in sizes]

        def compare_to(self, _before, _key):  # one diff lost on the way
            return [SimpleNamespace(size_diff=3072, traceback=[
                frame("src/repro/sim/kernel.py"), frame("x/numpy.py")])]

    monkeypatch.setattr(census, "run_window", lambda *_: (
        (Snapshot(1024), Snapshot(1024, 2048, 2048)), outcome(ops=2)))
    assert census.main(ARGS + ["--by", "retained"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[2] == "      1.50   75.0%  sim"
    assert err == ("census --by retained: the layers add up to 3072 B, "
                   "the snapshots differ by 4096 B\n")
