"""The kernel against queueing theory rather than against its own earlier
output: Poisson arrivals at one :class:`~repro.net.host.Host` of capacity 1
with a fixed service time D form an M/D/1 queue, whose mean wait is
Pollaczek–Khinchine's ρD / (2(1 − ρ)).

Each customer's wait is also checked, exactly, against Lindley's recursion
over the same arrival instants — so a miss of the closed form would be the
sample, not the kernel.  The sizes keep the sample mean's standard error
near 2%: at them, seeds 0–19 all land within 5% of the closed form.
"""

import pytest

from repro.net.host import Host
from repro.sim import DeterministicRNG, Simulator

SERVICE = 1.0


def md1_waits(rho: float, customers: int, seed: int = 0):
    """Arrival instants and waits (sojourn minus service) of ``customers``
    Poisson arrivals at rate ``rho / SERVICE``."""
    sim = Simulator()
    host = Host(sim, "server")
    gaps = DeterministicRNG(seed).child(f"md1/arrivals/{rho}")
    arrived, waits = [], []

    def customer():
        at = sim.now
        arrived.append(at)
        yield from host.use_cpu(SERVICE)
        waits.append(sim.now - at - SERVICE)

    def arrivals():
        for _ in range(customers):
            yield sim.timeout(gaps.exponential(SERVICE / rho))
            sim.spawn(customer())

    sim.spawn(arrivals())
    sim.run()
    return arrived, waits


def lindley(arrived):
    """FIFO single-server waits: each customer starts at the later of its
    arrival and its predecessor's departure."""
    waits, departed = [], 0.0
    for at in arrived:
        departed = max(at, departed) + SERVICE
        waits.append(departed - at - SERVICE)
    return waits


@pytest.mark.parametrize("rho, customers", [(0.5, 40_000), (0.8, 100_000)])
def test_mean_wait_is_md1(rho, customers):
    arrived, waits = md1_waits(rho, customers)
    assert waits == lindley(arrived)
    closed_form = rho * SERVICE / (2 * (1 - rho))
    assert sum(waits) / len(waits) == pytest.approx(closed_form, rel=0.05)
