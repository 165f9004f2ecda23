#!/usr/bin/env python
"""CI artifact exporter for the health plane (E10 fault injection).

Runs the E10 kill-a-server scenario, scrapes the surviving server's
``GET /status?format=prom`` endpoint through the real HTTP pipeline, and
writes:

- ``e10_status.prom``  — the Prometheus exposition at end of run
- ``e10_alerts.jsonl`` — every alert fire/resolve record, one per line
- ``e10_row.json``     — the scenario's measured row (detection latency,
  failover and command counts)
- ``e10_log.jsonl``    — the fleet's structured log: every server streams
  into one sink, so the file interleaves their records in event order,
  sim-time-stamped and trace-correlated

The exposition is round-tripped through :func:`repro.health.
parse_prometheus` before writing — an exporter that emits text the
parser rejects (or that loses samples) fails the build.

Usage: PYTHONPATH=src python tools/export_health_artifacts.py [outdir]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv) -> int:
    outdir = Path(argv[1]) if len(argv) > 1 else Path("health-artifacts")
    outdir.mkdir(parents=True, exist_ok=True)

    from repro.health import parse_prometheus
    from repro.bench.experiments import EXPERIMENTS
    from repro.bench.scenarios import scrape_status

    experiment = EXPERIMENTS["E10b"]
    log_lines: list = []  # the scrapes below log too, so written last
    rows, collab = experiment.run(quick=True, log_sink=log_lines.append)
    violated = experiment.check(rows)
    if violated:
        print("E10b acceptance facts violated: " + "; ".join(violated),
              file=sys.stderr)
        return 1
    (row,) = rows
    text = scrape_status(collab, params={"format": "prom"})

    samples = parse_prometheus(text)
    if not samples:
        print("exposition parsed to zero samples", file=sys.stderr)
        return 1
    health_samples = {k: v for k, v in samples.items()
                      if k[0] == "repro_health_status"}
    if not health_samples:
        print("no repro_health_status gauges in exposition",
              file=sys.stderr)
        return 1

    (outdir / "e10_status.prom").write_text(text, encoding="utf-8")
    alerts = scrape_status(collab, path="/status/alerts")
    with open(outdir / "e10_alerts.jsonl", "w", encoding="utf-8") as fh:
        for record in alerts["history"]:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    with open(outdir / "e10_row.json", "w", encoding="utf-8") as fh:
        json.dump(row, fh, indent=1, sort_keys=True, default=str)
        fh.write("\n")
    (outdir / "e10_log.jsonl").write_text(
        "".join(line + "\n" for line in log_lines), encoding="utf-8")
    print(f"health artifacts written to {outdir}/ "
          f"({len(samples)} prom samples, "
          f"{len(alerts['history'])} alert records, "
          f"{len(log_lines)} log records, "
          f"detection {row['detection_latency_s']:.2f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
