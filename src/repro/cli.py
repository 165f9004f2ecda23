"""Command-line interface: quick demos and experiment runs.

::

    python -m repro info                      # version + layer map
    python -m repro demo                      # end-to-end steering demo
    python -m repro experiments               # list runnable experiments
    python -m repro run E2 [--quick]          # one table + its facts
    python -m repro run all [--quick]         # every table, in table order
    python -m repro trace                     # trace a cross-server command
    python -m repro trace --view critical-path
    python -m repro trace --chrome trace.json # open in ui.perfetto.dev
    python -m repro status [--prom]           # fleet health after a fault
    python -m repro alerts                    # SLO alert fire/resolve log
    python -m repro tsdb                      # telemetry-drill quantile table
    python -m repro tsdb --series pipeline.latency.http   # one range dump
    python -m repro tsdb --chrome counters.json  # Perfetto counter tracks
    python -m repro costs                     # per-principal cost attribution
    python -m repro costs --export costs.json # snapshot for the cost gate
    python -m repro profile                   # sampled kernel-dispatch profile
    python -m repro profile --collapsed out.folded  # flamegraph.pl input
    python -m repro profile --chrome prof.json      # ui.perfetto.dev

Every experiment EXPERIMENTS.md names is a row of
:data:`repro.bench.experiments.EXPERIMENTS`; ``run`` prints its table and
then enforces its acceptance facts — the paper's claims — exiting 1 with
each violated fact named on stderr.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.experiments import EXPERIMENTS
from repro.bench.report import format_pipeline_summary, format_table
from repro.bench.scenarios import run_app_scalability, scrape_status


def cmd_info(_args) -> int:
    import repro
    print(f"repro {repro.__version__} — DISCOVER collaboratory middleware "
          f"(Mann & Parashar, HPDC 2001)")
    print(__doc__)
    return 0


def cmd_experiments(_args) -> int:
    print("experiments (`run <id>`, or `run all`):")
    for exp_id, entry in EXPERIMENTS.items():
        print(f"  {exp_id}: {entry.claim}")
    return 0


def cmd_run(args) -> int:
    """Print each experiment's table, then enforce its acceptance facts."""
    by_upper = {exp_id.upper(): exp_id for exp_id in EXPERIMENTS}
    wanted = args.experiment.upper()
    if wanted == "ALL":
        ids = list(EXPERIMENTS)
    elif wanted in by_upper:
        ids = [by_upper[wanted]]
    else:
        print(f"unknown experiment {wanted!r}; try `experiments`",
              file=sys.stderr)
        return 2
    status = 0
    for exp_id in ids:
        if exp_id != ids[0]:
            print()
        entry = EXPERIMENTS[exp_id]
        rows, _live = entry.run(args.quick)
        print(format_table(rows, entry.columns,
                           title=f"{exp_id}: {entry.claim}"))
        summary = format_pipeline_summary(rows)
        if summary:
            print(summary)
        for fact in entry.check(rows):
            print(f"{exp_id}: acceptance fact violated: {fact}",
                  file=sys.stderr)
            status = 1
    return status


def cmd_trace(args) -> int:
    """Run (or load) a traced scenario and render its span tree."""
    from repro.bench.report import format_registry
    from repro.obs import (
        export_chrome,
        export_jsonl,
        format_critical_path,
        format_trace_summary,
        format_trace_tree,
        load_jsonl,
    )

    registry = None
    if args.input:
        store = load_jsonl(args.input)
        print(f"loaded {len(store)} spans "
              f"({store.trace_count()} traces) from {args.input}")
    else:
        from repro.bench.scenarios import run_traced_remote_command
        row, tracer, registry = run_traced_remote_command(
            wan_latency=args.wan_latency)
        store = tracer.store
        print(f"traced cross-server steer: result={row['result']} "
              f"virtual_time={row['virtual_time_s']:.3f}s "
              f"spans={row['spans_recorded']} "
              f"traces={row['traces_recorded']}")

    if args.trace_id is not None:
        trace_id = args.trace_id
        if trace_id not in store.trace_ids():
            known = ", ".join(map(str, store.trace_ids()))
            print(f"unknown trace id {trace_id}; known: {known}",
                  file=sys.stderr)
            return 2
    else:
        # default to the client-visible command trace when present
        trace_id = store.trace_of_root("portal.command")
        if trace_id is None and store.trace_ids():
            trace_id = store.trace_ids()[0]
    if trace_id is None:
        print("no traces recorded (sampling off?)", file=sys.stderr)
        return 1

    print()
    if args.view == "summary":
        print(format_trace_summary(store))
    elif args.view == "dump":
        print(format_trace_tree(store, trace_id))
    else:  # critical-path
        print(format_trace_tree(store, trace_id))
        print()
        print(format_critical_path(store, trace_id))

    if args.export:
        export_jsonl(store, args.export)
        print(f"\nspans exported to {args.export} (JSONL)")
    if args.chrome:
        export_chrome(store, args.chrome)
        print(f"\nChrome trace written to {args.chrome} "
              f"— open in ui.perfetto.dev")
    if registry is not None and args.metrics:
        print("\nunified metrics snapshot:")
        print(format_registry(registry))
    return 0


def cmd_status(args) -> int:
    """Fleet health after the fault-injection scenario (operator view)."""
    (row,), collab = EXPERIMENTS["E10b"].run(args.quick)
    if args.prom:
        print(scrape_status(collab, params={"format": "prom"}))
        return 0
    body = scrape_status(collab)
    print(f"status of {body['server']} at sim-time {body['time']:.2f}s")
    fleet = body["health"]["fleet"]
    rows = [{"component": key, "status": status}
            for key, status in sorted(fleet.items())]
    print(format_table(rows, ["component", "status"], title="fleet health"))
    slo_rows = [{"slo": name, **detail}
                for name, detail in sorted(body["slo"].items())]
    if slo_rows:
        print(format_table(slo_rows,
                           ["slo", "sli", "compliant",
                            "burn_fast", "burn_slow"],
                           title="SLO compliance"))
    print(f"scenario: victim={row['victim']} "
          f"status={row['victim_status']} "
          f"detection_latency_s={row['detection_latency_s']} "
          f"failovers={row['health_failovers']}")
    return 0


def cmd_alerts(args) -> int:
    """Alert history after the fault-injection scenario."""
    (row,), collab = EXPERIMENTS["E10b"].run(args.quick)
    body = scrape_status(collab, path="/status/alerts")
    for label in ("active", "history"):
        records = body[label]
        print(f"{label}: {len(records)} alert(s)")
        if records:
            print(format_table(records,
                               ["slo", "severity", "fired_at",
                                "resolved_at", "exemplars"]))
    print(f"scenario: alerts_fired={row['alerts_fired']} "
          f"alerts_resolved={row['alerts_resolved']} "
          f"exemplar_traces={row['alert_exemplars']}")
    return 0


def cmd_tsdb(args) -> int:
    """Query the time-series store (run the E13 drill or load a dump)."""
    import json

    from repro.obs import TimeSeriesRegistry, to_chrome_counters

    if args.input:
        with open(args.input) as fh:
            merged = TimeSeriesRegistry.from_dict(json.load(fh))
        print(f"loaded {len(merged.names())} series from {args.input}")
    else:
        (row,), merged = EXPERIMENTS["E13"].run(args.quick)
        print(f"telemetry drill: victim={row['victim']} "
              f"breach_delay_s={row['breach_delay_s']} "
              f"p99_baseline_ms={row['p99_baseline_ms']} "
              f"p99_recovered_ms={row['p99_recovered_ms']} "
              f"p99_ratio={row['p99_ratio']}")

    if args.series:
        kind = merged.kind(args.series)
        if kind is None:
            print(f"unknown series {args.series!r}; known: "
                  f"{', '.join(merged.names())}", file=sys.stderr)
            return 2
        points = merged.query(args.series, "points", start=args.start,
                              end=args.end, q=args.q)
        if kind == "histogram":
            columns = ["t", "width", "count", "mean", "q", "max"]
        else:
            columns = ["t", "width", "value"]
        print(format_table(points, columns,
                           title=f"{args.series} ({kind}, q={args.q})"))
    else:
        rows = []
        for name in merged.names():
            kind = merged.kind(name)
            if kind == "histogram":
                summary = merged.histogram_summary(name)
                rows.append({"series": name, "kind": kind,
                             "count": summary["count"],
                             "p50": summary["p50"], "p90": summary["p90"],
                             "p99": summary["p99"], "max": summary["max"]})
            else:
                rows.append({"series": name, "kind": kind,
                             "sum": merged.query(name, "sum"),
                             "last": merged.query(name, "instant")})
        print(format_table(rows, ["series", "kind", "count", "sum", "last",
                                  "p50", "p90", "p99", "max"],
                           title="fleet-merged series"))

    if args.export:
        doc = merged.to_dict()
        with open(args.export, "w") as fh:
            json.dump(doc, fh)
        reloaded = TimeSeriesRegistry.from_dict(doc)
        assert reloaded.to_dict() == doc  # export/import is lossless
        print(f"\nstore exported to {args.export} "
              f"(round-trip verified, {len(doc['series'])} series)")
    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump({"traceEvents": to_chrome_counters(merged)}, fh)
        print(f"\nChrome counter tracks written to {args.chrome} "
              f"— open in ui.perfetto.dev")
    return 0


def cmd_costs(args) -> int:
    """Per-principal cost attribution from the noisy-neighbor drill."""
    import json

    from repro.obs import format_cost_report

    (row,), fleet = EXPERIMENTS["E14"].run(quick=not args.full)
    ledger = fleet.ledger
    print(f"noisy-neighbor drill: flooder={row['flooder']} "
          f"partition_exact={row['partition_exact']} "
          f"flooder_top_all_dims={row['flooder_top_all_dims']} "
          f"detection_latency_max_s={row['detection_latency_max_s']} "
          f"(bucket_width_s={row['bucket_width_s']})")
    print()
    print(format_cost_report(ledger, top=args.top))
    if args.export:
        snap = ledger.snapshot(top=args.top)
        snap["drill"] = {k: row[k] for k in
                         ("flooder", "partition_exact",
                          "flooder_top_all_dims", "detection_latency_max_s",
                          "bucket_width_s")}
        with open(args.export, "w") as fh:
            json.dump(snap, fh, indent=2, sort_keys=True)
        print(f"\ncost snapshot written to {args.export}")
    fleet.stop()
    return 0


def cmd_profile(args) -> int:
    """Continuous sampling profile of the kernel dispatch loop."""
    import json

    from repro.obs import DispatchProfiler

    profiler = DispatchProfiler(interval_us=args.interval_us)
    if args.scenario == "e14":
        (row,), fleet = EXPERIMENTS["E14"].run(quick=not args.full,
                                               profiler=profiler)
        fleet.stop()
        print(f"profiled E14 drill: sessions_done={row['sessions_done']} "
              f"flood_lookups={row['flood_lookups']} "
              f"virtual_duration_s={row['virtual_duration_s']}")
    else:  # e1
        n_apps = 20 if not args.full else 60
        duration = 10.0 if not args.full else 20.0
        row = run_app_scalability(n_apps, duration=duration,
                                  profiler=profiler)
        print(f"profiled E1 run: n_apps={row['n_apps']} "
              f"updates_processed={row['updates_processed']} "
              f"mean_lag_ms={row['mean_lag_ms']:.2f}")

    folds = profiler.top_folds(args.top)
    rows = [{"stack": stack, "samples": samples,
             "wall_us": wall_ns // 1000}
            for stack, samples, wall_ns in folds]
    print()
    print(format_table(rows, ["samples", "wall_us", "stack"],
                       title=f"top {args.top} folds "
                             f"(interval={args.interval_us}us)"))
    if args.collapsed:
        with open(args.collapsed, "w") as fh:
            fh.write(profiler.collapsed())
        print(f"\ncollapsed stacks written to {args.collapsed} "
              f"— feed to flamegraph.pl")
    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(profiler.to_chrome(), fh)
        print(f"\nChrome trace written to {args.chrome} "
              f"— open in ui.perfetto.dev")
    return 0


def cmd_demo(_args) -> int:
    """A compressed version of examples/quickstart.py."""
    from repro import AppConfig, build_single_server
    from repro.apps import SyntheticApp

    collab = build_single_server()
    collab.run_bootstrap()
    app = collab.add_app(
        0, SyntheticApp, "demo-sim", acl={"alice": "write"},
        config=AppConfig(steps_per_phase=5, step_time=0.02,
                         interaction_window=0.05))
    collab.sim.run(until=2.0)
    print(f"application registered: {app.app_id}")
    portal = collab.add_portal(0)

    def scenario():
        apps = yield from portal.login("alice")
        print(f"alice sees: {[a['name'] for a in apps]}")
        session = yield from portal.open(app.app_id)
        print(f"lock: {(yield from session.acquire_lock())}")
        value = yield from session.set_param("gain", 2.5)
        print(f"steered gain -> {value}")
        yield portal.sim.timeout(1.0)
        yield from portal.poll(max_items=64)
        print(f"updates received by polling: {len(portal.updates)}")

    collab.sim.run(until=collab.sim.spawn(scenario()))
    print(f"virtual time elapsed: {collab.sim.now:.2f}s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DISCOVER middleware reproduction")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("info", help="version and layer map")
    sub.add_parser("demo", help="run the end-to-end steering demo")
    sub.add_parser("experiments", help="list runnable experiments")
    run_p = sub.add_parser(
        "run", help="print an experiment's table and enforce its facts")
    run_p.add_argument("experiment",
                       help="experiment id (e.g. E1), or `all`")
    run_p.add_argument("--quick", action="store_true",
                       help="smaller sweep, shorter virtual duration")
    trace_p = sub.add_parser(
        "trace", help="trace a cross-server command and inspect the tree")
    trace_p.add_argument("--input", default=None,
                         help="load spans from a JSONL export instead of "
                              "running the scenario")
    trace_p.add_argument("--wan-latency", type=float, default=0.060,
                         help="one-way WAN latency in seconds "
                              "(default 0.060)")
    trace_p.add_argument("--view", default="critical-path",
                         choices=("summary", "dump", "critical-path"),
                         help="how to render the trace")
    trace_p.add_argument("--trace-id", type=int, default=None,
                         help="inspect a specific trace id")
    trace_p.add_argument("--export", default=None,
                         help="also export all spans as JSONL")
    trace_p.add_argument("--chrome", default=None,
                         help="also export a Chrome trace-event JSON "
                              "(ui.perfetto.dev)")
    trace_p.add_argument("--metrics", action="store_true",
                         help="print the unified metrics snapshot")
    status_p = sub.add_parser(
        "status", help="fleet health view from the fault-injection run")
    status_p.add_argument("--quick", action="store_true",
                          help="shorter virtual run")
    status_p.add_argument("--prom", action="store_true",
                          help="print the Prometheus exposition instead")
    alerts_p = sub.add_parser(
        "alerts", help="alert fire/resolve history from the "
                       "fault-injection run")
    alerts_p.add_argument("--quick", action="store_true",
                          help="shorter virtual run")
    tsdb_p = sub.add_parser(
        "tsdb", help="query the telemetry-drill time-series store")
    tsdb_p.add_argument("--quick", action="store_true",
                        help="shorter virtual run")
    tsdb_p.add_argument("--input", default=None,
                        help="load a previously exported store instead of "
                             "running the drill")
    tsdb_p.add_argument("--series", default=None,
                        help="dump one series' buckets instead of the "
                             "summary table")
    tsdb_p.add_argument("--start", type=float, default=None,
                        help="range start in sim-seconds")
    tsdb_p.add_argument("--end", type=float, default=None,
                        help="range end in sim-seconds")
    tsdb_p.add_argument("--q", type=float, default=0.99,
                        help="quantile for histogram dumps (default 0.99)")
    tsdb_p.add_argument("--export", default=None,
                        help="write the merged store as JSON "
                             "(loadable with --input)")
    tsdb_p.add_argument("--chrome", default=None,
                        help="write Chrome trace-event counter tracks "
                             "(ui.perfetto.dev)")
    costs_p = sub.add_parser(
        "costs", help="per-principal cost attribution from the "
                      "noisy-neighbor drill")
    costs_p.add_argument("--full", action="store_true",
                         help="full E14 scale (50 servers, 2000 sessions)")
    costs_p.add_argument("--top", type=int, default=5,
                         help="heavy hitters per dimension (default 5)")
    costs_p.add_argument("--export", default=None,
                         help="write the ledger snapshot as JSON")
    profile_p = sub.add_parser(
        "profile", help="sampled profile of the kernel dispatch loop")
    profile_p.add_argument("--scenario", default="e1",
                           choices=("e1", "e14"),
                           help="scenario to profile (default e1, "
                                "span-tagged)")
    profile_p.add_argument("--full", action="store_true",
                           help="full-scale scenario run")
    profile_p.add_argument("--interval-us", type=int, default=200,
                           help="virtual sampling interval in "
                                "microseconds (default 200)")
    profile_p.add_argument("--top", type=int, default=10,
                           help="folds to print (default 10)")
    profile_p.add_argument("--collapsed", default=None,
                           help="write collapsed stacks "
                                "(flamegraph.pl input)")
    profile_p.add_argument("--chrome", default=None,
                           help="write a Chrome trace-event JSON "
                                "(ui.perfetto.dev)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "demo": cmd_demo,
        "experiments": cmd_experiments,
        "run": cmd_run,
        "trace": cmd_trace,
        "status": cmd_status,
        "alerts": cmd_alerts,
        "tsdb": cmd_tsdb,
        "costs": cmd_costs,
        "profile": cmd_profile,
        None: cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
