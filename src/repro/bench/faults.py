"""Faults are data: frozen records, each landing ``at`` simulated seconds
after :func:`inject` (same-instant ones in the order given) and applying
itself, so a new kind of fault is a new record, not a new branch."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Kill:
    """Stop a server cold: its ports unbind, frames to it are dropped."""
    server: str
    at: float

    def apply(self, collab):
        collab.servers[self.server].stop()
        yield from ()


@dataclass(frozen=True)
class Restart:
    """Replace a stopped server from its storage; done once it rejoined."""
    server: str
    at: float

    def apply(self, collab):
        _server, report = collab.restart_server(self.server)
        yield collab.sim.spawn(collab.bootstrap(), name="bootstrap")
        return report


@dataclass(frozen=True)
class LoseShard:
    """Crash a fleet's directory replica; it stays on the ring."""
    shard: str
    at: float

    def apply(self, fleet):
        fleet.plane.kill_shard(self.shard)
        yield from ()


def inject(deployment, faults):
    """Spawn the injector; returns it and ``landed``: fault → ``(instant,
    result)``, ``result`` what its generator ``apply`` returned."""
    sim, landed, start = deployment.sim, {}, deployment.sim.now
    def injector():
        for fault in sorted(faults, key=lambda fault: fault.at):
            yield sim.timeout(start + fault.at - sim.now)
            landed[fault] = (sim.now, (yield from fault.apply(deployment)))
    return sim.spawn(injector(), name="fault-injector"), landed
