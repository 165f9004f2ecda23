"""Point-to-point duplex links with latency and bandwidth.

Transmission time (``size / bandwidth``) serializes on the link — frames
queue behind one another per direction — while propagation latency is
pipelined, the standard store-and-forward model.

Each direction's transmitter is a clock, ``free_at``: the time its last
accepted frame finishes transmitting.  A frame handed to :meth:`Link.send`
starts at ``max(now, free_at)``, is done one transfer time later, moves
``free_at`` there and arrives one latency after that — so a hop is **one**
pooled kernel callback, at the arrival time (none at all when that time is
now), however long the queue in front of it.  FIFO per direction, and a
zero-cost transfer waiting its turn behind a busy transmitter, follow from
the clock; there is no in-flight slot and no queue to drain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim import Simulator


class Link:
    """A duplex link between two hosts.

    Parameters
    ----------
    latency:
        One-way propagation delay in seconds.
    bandwidth:
        Bytes per second.  ``inf`` models an uncontended abstraction.
    kind:
        ``"lan"`` or ``"wan"`` — used by :class:`~repro.net.trace.TrafficTrace`
        to separate intra-domain from inter-domain traffic (experiment E4).
    """

    def __init__(self, sim: "Simulator", a: str, b: str, latency: float,
                 bandwidth: float = float("inf"), kind: str = "lan") -> None:
        if latency < 0:
            raise ValueError("latency must be >= 0")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if a == b:
            raise ValueError("link endpoints must differ")
        self.sim = sim
        self.a = a
        self.b = b
        self.latency = latency
        self.bandwidth = bandwidth
        self.kind = kind
        #: per sending end, when its transmitter finishes the last frame
        #: it accepted (``-inf``: it has never been busy)
        self._free_at: Dict[str, float] = {
            a: float("-inf"), b: float("-inf")}

    def other(self, host: str) -> str:
        """The opposite endpoint of ``host``."""
        if host == self.a:
            return self.b
        if host == self.b:
            return self.a
        raise ValueError(f"{host!r} is not an endpoint of {self!r}")

    def send(self, src: str, size: int,
             arrive: Callable[[Any], None], arg: Any) -> None:
        """Carry ``size`` bytes from the ``src`` end to the other one:
        ``arrive(arg)`` runs at arrival time, after queueing behind earlier
        frames of the same direction, the transfer and the latency.

        The arrival time is built by the same two additions a separate
        transmission-complete step and propagation step would make
        (``done = start + transfer``, then ``done + latency``) and given
        to the kernel as an absolute time: the next frame of the direction
        starts from the exact ``done`` of this one, and every simulated
        time stays bit-for-bit.  A frame that arrives now on a transmitter
        that was idle is delivered synchronously, no event at all.
        """
        sim = self.sim
        now = sim.now
        free_at = self._free_at[src]  # KeyError doubles as validation
        idle = free_at < now
        done = now if idle else free_at
        transfer = size / self.bandwidth  # bit-for-bit: keep the division
        if transfer > 0.0:
            done += transfer
            self._free_at[src] = done
        arrival = done + self.latency
        if idle and arrival == now:
            arrive(arg)
        else:
            sim.schedule_at(arrival, arrive, arg)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Link {self.a}<->{self.b} {self.kind} "
                f"lat={self.latency * 1e3:.1f}ms>")
