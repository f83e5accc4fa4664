"""Overlay probe mesh: pairwise latency/bandwidth estimation.

Overlay members periodically probe each other (small RTT pings and short
bulk transfers) and keep EWMA-smoothed estimates per directed pair — the
measurement substrate under RON-style path selection and the future-work
"dynamic network monitoring" the paper sketches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.core.world import World
from repro.errors import SelectionError
from repro.transfer.files import FileSpec
from repro.transfer.rsync import RsyncSession

__all__ = ["LinkEstimate", "ProbeMesh"]


@dataclass
class LinkEstimate:
    """EWMA state for one directed overlay pair."""

    rtt_s: Optional[float] = None
    bandwidth_bps: Optional[float] = None
    samples: int = 0
    last_update: float = 0.0

    def observe(self, rtt_s: float, bandwidth_bps: float, now: float, alpha: float) -> None:
        if self.samples == 0:
            self.rtt_s = rtt_s
            self.bandwidth_bps = bandwidth_bps
        else:
            self.rtt_s = (1 - alpha) * self.rtt_s + alpha * rtt_s
            self.bandwidth_bps = (1 - alpha) * self.bandwidth_bps + alpha * bandwidth_bps
        self.samples += 1
        self.last_update = now

    def mark_unreachable(self, now: float) -> None:
        """Record a failed probe: the pair currently has no usable path.

        Zero bandwidth makes path selection skip this pair (RON treats it
        as down until a later probe succeeds).
        """
        self.bandwidth_bps = 0.0
        self.samples += 1
        self.last_update = now


class ProbeMesh:
    """All-pairs probing among overlay member hosts.

    Members are topology host-node names.  ``probe_round`` sweeps every
    ordered pair serially (a real mesh staggers probes; serial keeps the
    simulated load honest and the code simple).
    """

    def __init__(
        self,
        world: World,
        members: Sequence[str],
        probe_bytes: int = 500_000,
        alpha: float = 0.3,
    ):
        if len(members) < 2:
            raise SelectionError("a probe mesh needs at least two members")
        if len(set(members)) != len(members):
            raise SelectionError("duplicate mesh members")
        if probe_bytes <= 0:
            raise SelectionError("probe size must be positive")
        if not (0 < alpha <= 1):
            raise SelectionError("alpha must be in (0, 1]")
        for m in members:
            world.topology.node(m)  # validate
        self.world = world
        self.members = tuple(members)
        self.probe_bytes = probe_bytes
        self.alpha = alpha
        self._estimates: Dict[Tuple[str, str], LinkEstimate] = {}
        self._serial = 0

    # -- estimates --------------------------------------------------------

    def estimate(self, src: str, dst: str) -> LinkEstimate:
        """Current estimate for the directed pair (may be empty)."""
        return self._estimates.setdefault((src, dst), LinkEstimate())

    def pairs(self) -> List[Tuple[str, str]]:
        return [(a, b) for a in self.members for b in self.members if a != b]

    def coverage(self) -> float:
        """Fraction of ordered pairs with at least one sample."""
        pairs = self.pairs()
        seen = sum(1 for p in pairs if self.estimate(*p).samples > 0)
        return seen / len(pairs)

    # -- probing --------------------------------------------------------------

    def probe_pair(self, src: str, dst: str):
        """Coroutine: one RTT ping + one short bulk probe for (src, dst).

        An unroutable pair (link failure, withdrawn route) is recorded as
        unreachable rather than raised — losing a path is a measurement,
        not a crash.
        """
        from repro.errors import RoutingError

        world = self.world
        try:
            path = world.router.resolve(src, dst)
        except RoutingError:
            self.estimate(src, dst).mark_unreachable(world.sim.now)
            return 0.0
        # ping: one round trip
        yield path.rtt_s
        # bulk probe: a small rsync-style transfer
        self._serial += 1
        session = RsyncSession(world.engine, world.router, world.tcp)
        start = world.sim.now
        yield from session.push(src, dst, FileSpec(f"mesh-probe-{self._serial}", self.probe_bytes))
        elapsed = world.sim.now - start
        bandwidth = units.throughput_bps(self.probe_bytes, elapsed)
        self.estimate(src, dst).observe(path.rtt_s, bandwidth, world.sim.now, self.alpha)
        return bandwidth

    def probe_round(self):
        """Coroutine: probe every ordered pair once."""
        for src, dst in self.pairs():
            yield from self.probe_pair(src, dst)
        return self.coverage()

    def run_periodic(self, interval_s: float = 60.0):
        """Spawn a background process probing forever every *interval_s*."""
        if interval_s <= 0:
            raise SelectionError("probe interval must be positive")

        def loop():
            while True:
                yield from self.probe_round()
                yield interval_s

        return self.world.sim.process(loop(), name="probe-mesh")
