"""TCP effective-throughput model.

The flow engine is fluid: a transfer drains at its max-min fair share of
path capacity.  Real TCP deviates from the fluid ideal in three ways that
matter to the paper's measurements:

1. **connection setup** — SYN handshake (1 RTT) plus optional TLS (2 RTT),
2. **slow start** — the congestion window ramps from IW segments, doubling
   per RTT, so short transfers never reach the fair share (this produces
   the fixed-cost intercept visible in the paper's small-file points),
3. **loss ceiling** — on lossy paths the window is loss-limited; we use
   the Mathis model ``rate <= C * MSS / (RTT * sqrt(p))``, which is what
   makes congested peerings (Purdue -> Google) so much worse than their
   raw capacity.

:class:`TcpModel` converts a resolved path into :class:`TcpPathParams` and
answers two questions: the flow's *rate ceiling* (fed to the max-min
allocator) and the *startup penalty* (extra time before fluid service
begins, given the initial rate).  :class:`TcpFlow` applies both to one
connection's bulk flows in the network engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro import units
from repro.obs.metrics import DURATION_BUCKETS, MetricsRegistry

if TYPE_CHECKING:
    from repro.net.engine import NetworkEngine
    from repro.net.routing import ResolvedPath, Router

__all__ = ["TcpPathParams", "TcpModel", "TcpFlow", "mathis_ceiling_bps",
           "slow_start_penalty_s"]

#: Mathis et al. constant for periodic loss, sqrt(3/2).
MATHIS_C = math.sqrt(1.5)


def mathis_ceiling_bps(rtt_s: float, loss: float, mss_bytes: int = units.DEFAULT_MSS) -> float:
    """Loss-limited steady-state TCP throughput (Mathis model).

    Returns +inf for loss-free paths (no ceiling).
    """
    if rtt_s <= 0:
        raise ValueError(f"rtt must be positive, got {rtt_s}")
    if not (0.0 <= loss < 1.0):
        raise ValueError(f"loss must be in [0,1), got {loss}")
    if loss == 0.0:
        return math.inf
    return MATHIS_C * mss_bytes * units.BITS_PER_BYTE / (rtt_s * math.sqrt(loss))


def slow_start_penalty_s(
    target_rate_bps: float,
    rtt_s: float,
    mss_bytes: int = units.DEFAULT_MSS,
    initial_window_segments: int = 10,
) -> float:
    """Extra completion time caused by the slow-start ramp.

    During slow start the window doubles each RTT starting from
    ``IW * MSS`` bytes/RTT; a fluid model would instead serve at
    ``target_rate_bps`` from t=0.  The penalty is the time-equivalent of
    the byte deficit accumulated before the window reaches the target
    rate.  Zero when the target is reached within the initial window.
    """
    if target_rate_bps <= 0 or rtt_s <= 0:
        raise ValueError("target rate and rtt must be positive")
    iw_bytes = initial_window_segments * mss_bytes
    target_bytes_per_rtt = units.bytes_per_sec(target_rate_bps) * rtt_s
    if target_bytes_per_rtt <= iw_bytes:
        return 0.0
    # number of doubling rounds until window >= target
    rounds = math.ceil(math.log2(target_bytes_per_rtt / iw_bytes))
    sent = iw_bytes * (2**rounds - 1)  # geometric sum over the ramp
    fluid = target_bytes_per_rtt * rounds
    deficit = max(0.0, fluid - sent)
    return deficit / units.bytes_per_sec(target_rate_bps)


@dataclass(frozen=True)
class TcpPathParams:
    """Path-level inputs for one TCP connection."""

    rtt_s: float
    loss: float
    mss_bytes: int = units.DEFAULT_MSS

    @property
    def loss_ceiling_bps(self) -> float:
        return mathis_ceiling_bps(self.rtt_s, self.loss, self.mss_bytes)


class TcpModel:
    """Per-connection TCP cost model shared by all transfer tools."""

    def __init__(
        self,
        initial_window_segments: int = 10,
        tls_round_trips: float = 2.0,
        handshake_round_trips: float = 1.0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.initial_window_segments = initial_window_segments
        self.tls_round_trips = tls_round_trips
        self.handshake_round_trips = handshake_round_trips
        metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self._m_connects = metrics.counter(
            "repro_tcp_connects_total", "TCP connections established")
        self._m_tls = metrics.counter(
            "repro_tcp_tls_connects_total", "TLS handshakes performed")
        self._m_penalty = metrics.histogram(
            "repro_tcp_slow_start_penalty_seconds",
            "Slow-start ramp deficit per connection", buckets=DURATION_BUCKETS)

    def connect_time_s(self, path: TcpPathParams, tls: bool = False) -> float:
        """Time before the first payload byte can be sent."""
        self._m_connects.inc()
        if tls:
            self._m_tls.inc()
        rtts = self.handshake_round_trips + (self.tls_round_trips if tls else 0.0)
        return rtts * path.rtt_s

    def rate_ceiling_bps(self, path: TcpPathParams) -> float:
        """Per-connection ceiling imposed by loss/RTT (Mathis)."""
        return path.loss_ceiling_bps

    def startup_penalty_s(self, path: TcpPathParams, target_rate_bps: float) -> float:
        """Slow-start deficit time for this path at the given target rate."""
        if not math.isfinite(target_rate_bps):
            raise ValueError("target rate must be finite for the ramp model")
        penalty = slow_start_penalty_s(
            target_rate_bps,
            path.rtt_s,
            path.mss_bytes,
            self.initial_window_segments,
        )
        self._m_penalty.observe(penalty)
        return penalty

    def request_response_time_s(self, path: TcpPathParams, server_time_s: float = 0.0) -> float:
        """Cost of one small request/response exchange on a warm connection."""
        return path.rtt_s + server_time_s


class TcpFlow:
    """One TCP connection's engine flows over a resolved path: its
    :class:`TcpPathParams` (*params* overrides the path's own), its
    interned directions and its per-flow ceiling (loss ceiling or
    middlebox cap, whichever is tighter)."""

    __slots__ = ("engine", "tcp", "params", "directions", "ceiling_bps")

    def __init__(self, engine: "NetworkEngine", router: "Router", tcp: TcpModel,
                 path: "ResolvedPath", params: Optional[TcpPathParams] = None):
        self.engine = engine
        self.tcp = tcp
        self.params = params if params is not None else TcpPathParams(path.rtt_s, path.loss)
        self.directions = engine.intern(router.path_directions(path))
        self.ceiling_bps = min(tcp.rate_ceiling_bps(self.params), path.per_flow_cap_bps)

    def send(self, nbytes: float, label: str, ramp: bool = False) -> Generator:
        """Coroutine: one engine flow of *nbytes*; returns its TransferResult.
        ``ramp`` (the connection's first flow) adds the slow-start deficit
        at the rate the engine would give the flow now."""
        deficit_bytes = 0.0
        if ramp:
            est = self.engine.estimate_rate(self.directions, self.ceiling_bps)
            if est > 0 and math.isfinite(est):
                deficit_bytes = (self.tcp.startup_penalty_s(self.params, est)
                                 * units.bytes_per_sec(est))
        transfer = self.engine.start_transfer(
            self.directions, nbytes, ceiling_bps=self.ceiling_bps, label=label,
            startup_deficit_bytes=deficit_bytes,
        )
        return (yield transfer.done)
