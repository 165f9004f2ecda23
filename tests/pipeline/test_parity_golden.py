"""Bit-for-bit parity with the pre-pipeline seed.

``golden_seed.json`` was captured from the tree *before* the dispatch
planes were refactored onto :mod:`repro.pipeline`, by running E1, E2 and
both E4 modes.  Interceptor hooks are plain function calls — they schedule
no simulator events and touch no wire payloads — so every scenario metric
must match the seed exactly, down to the last float bit.  The E4 rows were
re-pinned once, when ids became the simulation's: each scenario numbers
its frames, messages and requests from 1, so shorter ids ride the wire.

Every id a scenario puts on the wire is drawn from its own simulator, so
a row is a function of the scenario's arguments alone: the replay runs in
this process, after whatever other tests ran before it.
"""

import json
from pathlib import Path

import pytest

from repro.bench.scenarios import (run_app_scalability,
                                   run_client_scalability,
                                   run_collab_scenario)

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_seed.json").read_text())


def capture_rows():
    """The seed's four scenarios, through JSON as the capture went."""
    rows = {
        "E1": run_app_scalability(8, duration=4.0),
        "E2": run_client_scalability(6, duration=4.0),
        "E4_central": run_collab_scenario(mode="central", duration=4.0,
                                          wan_latency=0.060),
        "E4_p2p": run_collab_scenario(mode="p2p", duration=4.0,
                                      wan_latency=0.060),
    }
    return json.loads(json.dumps(rows, default=str))


@pytest.fixture(scope="module")
def replay():
    return capture_rows()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_scenario_matches_seed_exactly(key, replay):
    row, golden = replay[key], GOLDEN[key]
    mismatches = {k: (golden[k], row.get(k)) for k in golden
                  if row.get(k) != golden[k]}
    assert not mismatches, (
        f"{key} drifted from the pre-pipeline seed: {mismatches}")
    # the refactor adds observability keys on top — they must be present
    for extra in ("http_requests", "pipeline_errors", "sessions_expired"):
        assert extra in row, f"{key} row lost pipeline counter {extra}"
