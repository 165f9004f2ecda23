"""Experiment harness: workloads, scenario runners, the experiment
table and reporting.

- :mod:`repro.bench.workload` — scripted client behaviours (polling
  monitors, steering engineers) and application farms.
- :mod:`repro.bench.scenarios` — end-to-end scenario runners that assemble
  a deployment, drive a workload for a stretch of virtual time, and return
  the measured table row.
- :mod:`repro.bench.fleet` — the star-backbone fleet and the E11/E14
  drills on it.
- :mod:`repro.bench.traffic` — declarative synthetic traffic (arrival
  process, session plans) for the fleet drills and ``perf/``.
- :mod:`repro.bench.experiments` — the experiment table: every experiment
  EXPERIMENTS.md names, with its quick/full parameters, columns and
  acceptance facts, declared once for the CLI (``python -m repro run
  <id>`` / ``run all``), CI, ``tools/`` and the tests.
- :mod:`repro.bench.report` — table and footer formatting shared by every
  printed experiment.

What a run costs the host is timed by ``perf/`` (the benchmark of record)
and the single-purpose scripts in ``tools/``, not here.
"""

from repro.bench.report import format_table
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
    "run_app_scalability",
    "run_client_scalability",
    "run_collab_scenario",
    "run_remote_vs_local",
    "steering_client",
]
