"""Same seed, same bytes: a drill run twice in one process leaves equal
rows, span lists, simulated clocks and ``/status*`` bodies.

Nothing the simulation records or serves reads the host's clock, so a
scrape's body — and with it the reply's size on the simulated wire, the
scrape's span and the clock it leaves — is a function of the seed.  Host
time has its own instruments, ``repro profile`` and
``RecoveryReport.wall_ms``, and neither reaches a row or a body.
"""

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.scenarios import run_recovery_drill, scrape_status

#: E10b's scrapes: the Prometheus text, the ledger, the time-series store
SCRAPES = (("/status", {"format": "prom"}), ("/status/costs", None),
           ("/status/timeseries", None))


def observed(rows, collab, scrapes, domain_index=0):
    """Everything a reader of one run sees, the scrapes' bodies after the
    rows, then the spans and the clock the scrapes left."""
    bodies = [scrape_status(collab, domain_index=domain_index, path=path,
                            params=params) for path, params in scrapes]
    out = {"rows": rows, "bodies": bodies,
           "spans": [span.to_dict() for span in collab.tracer.store.spans()],
           "now": collab.sim.now}
    collab.stop()
    return out


def telemetry_drill():
    rows, collab = EXPERIMENTS["E10b"].run(quick=True)
    return observed(rows, collab, SCRAPES)


def recovery_drill():
    """E12's quick run, scraped at the restarted server (domain 1)."""
    row, collab = run_recovery_drill(**EXPERIMENTS["E12"].quick[0])
    return observed([row], collab, SCRAPES[:1], domain_index=1)


@pytest.mark.parametrize("drill", [telemetry_drill, recovery_drill],
                         ids=["E10b", "E12"])
def test_two_runs_are_byte_identical(drill):
    first, second = drill(), drill()
    assert first["rows"] == second["rows"]
    assert first["bodies"] == second["bodies"]
    assert first["spans"] == second["spans"]
    assert first["now"] == second["now"]
