"""Tests of the benchmark itself.  Run with ``python -m pytest perf -q``
from the repository root; they are not part of the tier-1 suite."""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import layers
from run import end_to_end

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def benchmark(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(PERF / "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=120)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """Two traced ``--quick`` suites on seed 0 and a plain one on seed 1:
    ``{label: (result file's content, stdout, wall seconds, file)}``."""
    out = tmp_path_factory.mktemp("perf")
    runs = {}
    for label, args in (("a", ("--seed", "0", "--trace")),
                        ("b", ("--seed", "0", "--trace")),
                        ("other", ("--seed", "1"))):
        path = out / f"{label}.json"
        t0 = time.perf_counter()
        proc = benchmark("--quick", "--out", str(path), *args)
        runs[label] = (json.loads(path.read_text()), proc.stdout,
                       time.perf_counter() - t0, path)
    return runs


def test_quick_suite_is_fast_and_names_every_metric(quick):
    result, stdout, seconds, _path = quick["a"]
    assert seconds < 60
    assert list(result["workloads"]) == WORKLOADS
    for name in WORKLOADS:
        entry = result["workloads"][name]
        assert len(entry["rounds"]) == 1
        assert entry["rounds"][0]["failed"] == 0
        assert set(end_to_end(entry["rounds"])) == {
            m["name"] for m in SPEC["end_to_end"]}
        assert {m["name"] for m in SPEC["per_layer"]} <= set(
            entry["per_layer"])
        assert (PERF / "out" / f"{name}.edges.json").is_file()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"]
        assert f"{metric['name']} " in stdout
    assert "simulated time" in stdout and "host time" in stdout


def test_driver_line_holds_exactly_the_declared_metrics():
    for trace, declared in (("0", "end_to_end"), ("1", "per_layer")):
        proc = benchmark("--workload", "app_updates", "--seed", "3",
                         "--quick", "--trace", trace)
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert line["metrics"] == {
            m["name"]: {"value": line["metrics"][m["name"]]["value"],
                        "unit": m["unit"]} for m in SPEC[declared]}


def test_same_seed_repeats_exactly_and_another_seed_differs(quick):
    a, b, other = (quick[k][0]["workloads"] for k in ("a", "b", "other"))
    for name in WORKLOADS:
        digest = a[name]["rounds"][0]["sim_digest"]
        assert digest == b[name]["rounds"][0]["sim_digest"]
        assert digest != other[name]["rounds"][0]["sim_digest"]
        for key, value in a[name]["per_layer"].items():
            if not key.endswith(".calls_per_op"):
                continue
            if key in ("obs.accounting.calls_per_op", "all.calls_per_op"):
                # the ledger ranks principals by real microseconds, so its
                # sketch evicts differently from run to run
                assert value == pytest.approx(b[name]["per_layer"][key],
                                              rel=1e-3), (name, key)
            else:
                assert value == b[name]["per_layer"][key], (name, key)
    # the planes are bookkeeping only: turning them off changes no output
    assert (a["app_updates"]["rounds"][0]["sim_digest"]
            == a["app_updates_bare"]["rounds"][0]["sim_digest"])


def test_layer_shares_sum_to_one(quick):
    for name, entry in quick["a"][0]["workloads"].items():
        shares = [v for k, v in entry["per_layer"].items()
                  if k.endswith(".self_share")]
        assert len(shares) == len(layers.LAYERS)
        assert sum(shares) == pytest.approx(1.0), name


def test_compare_accepts_a_rerun_and_rejects_a_slowdown(quick, tmp_path):
    a_path, b_path = quick["a"][3], quick["b"][3]
    script = [sys.executable, str(PERF / "compare.py")]
    same = subprocess.run(script + [str(a_path), str(b_path)], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True)
    # one tenth-size round a side cannot settle host time: only the
    # simulated outputs can be held to "unchanged" here
    assert "sim_digest mismatch" not in same.stdout
    sim_rows = [row for row in same.stdout.splitlines() if " sim_p" in row]
    assert len(sim_rows) == 2 * len(WORKLOADS)
    assert all(" unchanged " in row for row in sim_rows)
    slow = json.loads(b_path.read_text())
    for entry in slow["workloads"].values():
        for round_ in entry["rounds"]:
            round_["slice_wall_s"] = [1.5 * s for s in
                                      round_["slice_wall_s"]]
    slow["workloads"]["client_polls"]["rounds"][0]["sim_digest"] = "0" * 64
    slow_path = tmp_path / "slow.json"
    slow_path.write_text(json.dumps(slow))
    worse = subprocess.run(script + [str(a_path), str(slow_path)], cwd=ROOT,
                           stdout=subprocess.PIPE, text=True)
    assert worse.returncode == 1
    assert "ops_per_s" in worse.stdout and "regressed" in worse.stdout
    assert "sim_digest mismatch" in worse.stdout


def test_judge_follows_the_bound_and_the_spread():
    def judge(a, b, better="lower", bound=0.1):
        return compare.judge(statistics.median(a), statistics.median(b),
                             a, b, better, bound)

    steady = [100.0, 101.0, 99.0]
    assert judge(steady, [100.5, 101.5, 99.5]) == "unchanged"
    assert judge(steady, [120.0, 121.0, 119.0]) == "regressed"
    assert judge(steady, [80.0, 81.0, 79.0]) == "improved"
    assert judge(steady, [120.0, 121.0, 119.0], "higher") == "improved"
    # as noisy as the bound is wide: cannot be called unchanged
    assert judge([100.0, 130.0, 80.0], [101.0, 125.0, 85.0]) == "unresolved"
    # one round a side says nothing about the spread
    assert judge([100.0], [101.0]) == "unresolved"
    # an exact metric: any move counts
    assert judge([5.0], [5.0], bound=0.0) == "unchanged"
    assert judge([5.0], [5.0001], bound=0.0) == "regressed"


def test_host_time_is_the_sum_of_slice_medians():
    rounds = [{"ops": 10, "slice_wall_s": walls, "slice_cpu_s": walls,
               "setup_s": 1.0, "sim_p50_ms": 1.0, "sim_p99_ms": 1.0,
               "peak_rss_mb": 1.0}
              for walls in ([1.0, 1.0, 9.0], [1.0, 9.0, 1.0],
                            [9.0, 1.0, 1.0])]
    # each round lost one slice to a disturbance; no slice lost two
    assert end_to_end(rounds)["ops_per_s"] == pytest.approx(10 / 3.0)
    assert end_to_end(rounds)["cpu_us_per_op"] == pytest.approx(3e5)


def test_fold_charges_outside_functions_to_the_calling_layer():
    window = ("/repo/perf/workloads.py", 10, "window")
    append = ("/repo/src/repro/storage/wal.py", 20, "append")
    span = ("/repo/src/repro/obs/tracer.py", 30, "span")
    dumps = ("/usr/lib/python3/json/__init__.py", 40, "dumps")
    encode = ("~", 0, "<built-in method encode>")
    orphan = ("~", 0, "<built-in method exec>")
    # func -> (cc, nc, tt, ct, {caller: (cc, nc, tt, ct)})
    stats = {
        window: (1, 1, 1.0, 10.0, {}),
        append: (4, 4, 2.0, 8.0, {window: (4, 4, 2.0, 8.0)}),
        span: (2, 2, 1.0, 1.0, {window: (2, 2, 1.0, 1.0)}),
        # dumps is called 3x from storage and 1x from the tracer
        dumps: (4, 4, 1.0, 6.0, {append: (3, 3, 0.75, 5.0),
                                 span: (1, 1, 0.25, 1.0)}),
        # encode is only ever called from dumps: blame follows the chain
        encode: (4, 4, 4.0, 4.0, {dumps: (4, 4, 4.0, 4.0)}),
        orphan: (1, 1, 0.5, 0.5, {}),
    }
    folded = layers.fold(stats,
                         layers.repo_layer_of("/repo/src/repro",
                                              "/repo/perf"))
    table = folded["layers"]
    assert table["driver"] == {"calls": 1, "self_s": 1.0}
    assert table["storage"]["self_s"] == pytest.approx(2.0 + 0.75 + 3.0)
    assert table["storage"]["calls"] == pytest.approx(4 + 3 + 3)
    assert table["obs.tracer"]["self_s"] == pytest.approx(1.0 + 0.25 + 1.0)
    assert table["ext"] == {"calls": 1, "self_s": 0.5}
    total = sum(tt for (_cc, _nc, tt, _ct, _callers) in stats.values())
    assert sum(row["self_s"] for row in table.values()) \
        == pytest.approx(total)
    edges = {(e["caller"], e["callee"]): e for e in folded["edges"]}
    assert edges[("driver", "storage")]["calls"] == 4
    assert edges[("driver", "storage")]["cum_s"] == 8.0
    assert ("storage", "storage") not in edges
