"""Background cross-traffic generators.

The run-to-run variance the paper reports (Table IV: e.g. Purdue→OneDrive
100 MB = 387.66 s ± 117.81 s) comes from sharing congested links with
other people's traffic.  We reproduce it organically: designated link
directions carry stochastic background flows, and the measured transfer's
max-min share fluctuates as those flows come and go.

Two source models:

* :class:`PoissonSource` — Poisson arrivals of lognormally-sized flows
  (classic mice/elephants mix).  Gives moderate, stationary variance.
* :class:`OnOffSource` — a long-lived elephant alternating exponential
  on/off periods.  Gives the bursty, heavy variance seen on badly
  congested peerings.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log
from typing import List, Optional, Sequence

import numpy as np

from repro import units
from repro.net.engine import NetworkEngine
from repro.net.topology import LinkDirection
from repro.sim.kernel import Process, Simulator

__all__ = ["PoissonSource", "OnOffSource", "CrossTrafficConfig", "start_sources"]


class PoissonSource:
    """Poisson arrivals of finite background flows on a set of resources.

    Parameters
    ----------
    mean_utilization:
        Target long-run fraction of ``reference_capacity_bps`` occupied by
        this source (offered load).
    mean_flow_bytes, sigma_log:
        Lognormal flow-size distribution parameters (mean in bytes and
        log-space sigma).
    per_flow_ceiling_bps:
        Each background flow's own TCP ceiling.
    """

    def __init__(
        self,
        resources: Sequence[LinkDirection],
        reference_capacity_bps: float,
        mean_utilization: float,
        rng: np.random.Generator,
        mean_flow_bytes: float = 4.0 * units.MB,
        sigma_log: float = 1.2,
        per_flow_ceiling_bps: float = inf,
        label: str = "bg",
    ):
        if not (0.0 <= mean_utilization < 1.0):
            raise ValueError(f"utilization must be in [0,1), got {mean_utilization}")
        if mean_flow_bytes <= 0:
            raise ValueError("mean flow size must be positive")
        self.resources = tuple(resources)
        self.mean_utilization = mean_utilization
        self.rng = rng
        self.mean_flow_bytes = mean_flow_bytes
        self.sigma_log = sigma_log
        self.per_flow_ceiling_bps = per_flow_ceiling_bps
        self.label = label
        offered_bps = mean_utilization * reference_capacity_bps
        self.arrival_rate_hz = offered_bps / (mean_flow_bytes * units.BITS_PER_BYTE)
        # lognormal with requested mean: mu = ln(mean) - sigma^2/2
        self._mu = log(mean_flow_bytes) - sigma_log**2 / 2.0

    def _next_interarrival(self) -> float:
        return float(self.rng.exponential(1.0 / self.arrival_rate_hz))

    def _next_size(self) -> float:
        return float(self.rng.lognormal(self._mu, self.sigma_log))

    def run(self, sim: Simulator, engine: NetworkEngine) -> Process:
        """Spawn the generator process (runs until the simulation ends)."""
        path = engine.intern(self.resources)

        def _gen():
            if self.arrival_rate_hz <= 0:
                return
            # Random phase so sources don't synchronize at t=0.
            yield self._next_interarrival() * float(self.rng.random())
            i = 0
            while True:
                engine.start_transfer(
                    path,
                    max(1.0, self._next_size()),
                    ceiling_bps=self.per_flow_ceiling_bps,
                    label=f"{self.label}.p{i}",
                )
                i += 1
                yield self._next_interarrival()

        return sim.process(_gen(), name=f"poisson:{self.label}")


class OnOffSource:
    """A long-lived elephant flow alternating exponential ON/OFF periods.

    While ON it occupies the resources at up to ``rate_bps`` (as a
    ceiling-limited flow), starving fair shares of concurrent transfers;
    while OFF it vanishes.  Duty cycle = on/(on+off).
    """

    def __init__(
        self,
        resources: Sequence[LinkDirection],
        rate_bps: float,
        mean_on_s: float,
        mean_off_s: float,
        rng: np.random.Generator,
        label: str = "bg-elephant",
        parallel_flows: int = 1,
    ):
        if rate_bps <= 0 or mean_on_s <= 0 or mean_off_s <= 0:
            raise ValueError("rate and on/off durations must be positive")
        if parallel_flows < 1:
            raise ValueError("parallel_flows must be >= 1")
        self.resources = tuple(resources)
        self.rate_bps = rate_bps
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.rng = rng
        self.label = label
        #: number of concurrent TCP flows the elephant runs while ON — the
        #: fair share of a competing transfer is capacity/(N+1), so herds
        #: model the aggressive multi-connection bulk movers seen on
        #: congested interconnects.
        self.parallel_flows = parallel_flows

    @property
    def duty_cycle(self) -> float:
        return self.mean_on_s / (self.mean_on_s + self.mean_off_s)

    def run(self, sim: Simulator, engine: NetworkEngine) -> Process:
        path = engine.intern(self.resources)

        def _gen():
            # Random initial phase: start OFF part of the time.
            if self.rng.random() < self.duty_cycle:
                pass  # start ON immediately
            else:
                yield float(self.rng.exponential(self.mean_off_s))
            i = 0
            while True:
                on_for = float(self.rng.exponential(self.mean_on_s))
                burst_bytes = units.bytes_per_sec(self.rate_bps) * on_for
                flows = [
                    engine.start_transfer(
                        path,
                        max(1.0, burst_bytes),
                        ceiling_bps=self.rate_bps,
                        label=f"{self.label}.on{i}.f{j}",
                    )
                    for j in range(self.parallel_flows)
                ]
                i += 1
                # Wait the nominal ON period, then cancel whatever is left
                # (the elephant stops transmitting regardless of progress).
                yield on_for
                for t in flows:
                    engine.cancel(t)
                yield float(self.rng.exponential(self.mean_off_s))

        return sim.process(_gen(), name=f"onoff:{self.label}")


@dataclass(frozen=True)
class CrossTrafficConfig:
    """Declarative cross-traffic attachment used by the testbed builder.

    ``link_name`` + ``from_node`` select the congested direction.
    ``utilization`` drives a :class:`PoissonSource`; ``elephant_rate_bps``
    (if set) adds an :class:`OnOffSource` with the given on/off means.
    """

    link_name: str
    from_node: str
    utilization: float = 0.0
    mean_flow_bytes: float = 4.0 * units.MB
    elephant_rate_bps: Optional[float] = None
    elephant_on_s: float = 30.0
    elephant_off_s: float = 30.0
    elephant_flows: int = 1


def start_sources(
    configs: Sequence[CrossTrafficConfig],
    sim: Simulator,
    engine: NetworkEngine,
    rng_for: "callable",
) -> List[Process]:
    """Instantiate and launch all configured sources.

    ``rng_for(name)`` supplies a dedicated RNG stream per source so runs
    are reproducible (see :class:`repro.sim.rng.RngRegistry`).
    """
    procs: List[Process] = []
    for cfg in configs:
        link = engine.topology.link(cfg.link_name)
        direction = link.direction_from(cfg.from_node)
        cap = engine.capacity_of(direction)
        if cfg.utilization > 0:
            src = PoissonSource(
                [direction],
                reference_capacity_bps=cap,
                mean_utilization=cfg.utilization,
                rng=rng_for(f"xtraffic.poisson.{cfg.link_name}.{cfg.from_node}"),
                mean_flow_bytes=cfg.mean_flow_bytes,
                label=f"bg.{cfg.link_name}",
            )
            procs.append(src.run(sim, engine))
        if cfg.elephant_rate_bps:
            elephant = OnOffSource(
                [direction],
                rate_bps=cfg.elephant_rate_bps,
                mean_on_s=cfg.elephant_on_s,
                mean_off_s=cfg.elephant_off_s,
                rng=rng_for(f"xtraffic.onoff.{cfg.link_name}.{cfg.from_node}"),
                label=f"bg-el.{cfg.link_name}",
                parallel_flows=cfg.elephant_flows,
            )
            procs.append(elephant.run(sim, engine))
    return procs
