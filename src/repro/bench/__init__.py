"""Benchmark harness: workloads, scenario runners, and reporting.

Each experiment in ``benchmarks/`` (see the per-experiment index in
DESIGN.md) builds on these pieces:

- :mod:`repro.bench.workload` — scripted client behaviours (polling
  monitors, steering engineers) and application farms.
- :mod:`repro.bench.scenarios` — end-to-end scenario runners that assemble
  a deployment, drive a workload for a stretch of virtual time, and return
  the measured table row.
- :mod:`repro.bench.fleet` — the star-backbone fleet and the E11/E14
  drills on it.
- :mod:`repro.bench.experiments` — the experiment table: each runnable
  experiment's quick/full parameters, columns and acceptance facts,
  declared once for the CLI, CI, ``tools/`` and the tests.
- :mod:`repro.bench.report` — table formatting shared by every benchmark's
  printed output.
- :mod:`repro.bench.wallclock` — the *wall-clock* harness: real seconds
  burned by the simulator itself (wire fast path, network delivery,
  broadcast fan-out, storage journal), reported as ``BENCH_*.json``;
  end-to-end timing is ``perf/``'s.
"""

from repro.bench.report import format_table, print_experiment
from repro.bench.scenarios import (
    run_app_scalability,
    run_client_scalability,
    run_collab_scenario,
    run_remote_vs_local,
)
from repro.bench.workload import (
    make_app_farm,
    polling_client,
    steering_client,
)

__all__ = [
    "format_table",
    "make_app_farm",
    "polling_client",
    "print_experiment",
    "run_app_scalability",
    "run_client_scalability",
    "run_collab_scenario",
    "run_remote_vs_local",
    "steering_client",
]
