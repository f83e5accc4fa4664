"""Fluid flow-level transfer engine on the discrete-event kernel.

Active transfers are fluid flows draining at their max-min fair share of
the directed link capacities they cross (recomputed on every flow arrival
or departure).  This is the standard flow-level abstraction for WAN
capacity studies: it keeps per-transfer cost at "a handful of events"
instead of per-packet, while preserving the bandwidth-sharing phenomena
the paper measures (congested peerings, policed egresses, last-mile caps).

TCP behaviour enters in two places:

* a per-flow **rate ceiling** (the Mathis loss ceiling, computed by the
  caller from path loss/RTT) bounds the fair share,
* a **slow-start deficit**: the engine converts the ramp-up byte deficit
  into extra wire bytes at flow-start time (see ``start_transfer``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import inf, isfinite, ulp
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro import units
from repro.errors import TransferError
from repro.net.flows import FlowSpec, max_min_allocation
from repro.net.topology import LinkDirection, Topology
from repro.obs.metrics import DURATION_BUCKETS, RATE_BUCKETS, MetricsRegistry
from repro.sim.kernel import Signal, Simulator
from repro.sim.trace import Tracer

__all__ = ["NetworkEngine", "Transfer", "TransferResult"]

#: Completion-event drift allowance, in ulps of the sim clock: a flow's
#: own completion event may under-credit progress by at most this many
#: float-time grains times its byte rate (see ``_complete``).
_DRIFT_ULPS = 64.0


@dataclass(frozen=True)
class TransferResult:
    """Completion record for one flow."""

    label: str
    nbytes: float
    start_time: float
    end_time: float

    @property
    def duration_s(self) -> float:
        return self.end_time - self.start_time

    @property
    def mean_rate_bps(self) -> float:
        return units.throughput_bps(self.nbytes, self.duration_s)


@dataclass
class Transfer:
    """Handle for an in-flight flow."""

    flow_id: int
    label: str
    spec: FlowSpec
    payload_bytes: float
    wire_bytes: float  # payload + slow-start deficit
    start_time: float
    done: Signal
    remaining_bytes: float = 0.0
    rate_bps: float = 0.0
    #: ``spec`` with each direction replaced by the engine's interned id:
    #: what the allocator sees, so no direction is re-hashed per pass.
    _alloc_spec: Optional[FlowSpec] = None
    _last_update: float = 0.0
    _completion_handle: Optional[object] = None

    @property
    def finished(self) -> bool:
        return self.done.triggered


class NetworkEngine:
    """Shared-bandwidth transfer execution over a topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        tracer: Optional[Tracer] = None,
        capacity_scale: Optional[Dict[str, float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: optional per-link multiplicative capacity jitter for this run,
        #: keyed by link name (applied to both directions).
        self.capacity_scale = capacity_scale or {}
        self._flows: Dict[int, Transfer] = {}
        self._ids = itertools.count(1)
        #: every direction seen is interned to a dense id; capacities are
        #: cached by id and refreshed by ``on_link_state_change``.
        self._direction_ids: Dict[LinkDirection, int] = {}
        self._capacities: List[float] = []
        metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self.metrics = metrics
        self._m_started = metrics.counter(
            "repro_engine_flows_started_total", "Flows started")
        self._m_completed = metrics.counter(
            "repro_engine_flows_completed_total", "Flows completed")
        self._m_cancelled = metrics.counter(
            "repro_engine_flows_cancelled_total", "Flows cancelled")
        self._m_payload = metrics.counter(
            "repro_engine_payload_bytes_total", "Payload bytes delivered")
        self._m_reallocs = metrics.counter(
            "repro_engine_reallocations_total", "Max-min reallocation passes")
        self._m_active = metrics.gauge(
            "repro_engine_active_flows_count", "Flows currently in flight")
        self._m_duration = metrics.histogram(
            "repro_engine_flow_duration_seconds", "Per-flow transfer duration",
            buckets=DURATION_BUCKETS)
        self._m_throughput = metrics.histogram(
            "repro_engine_flow_throughput_bps", "Per-flow mean throughput",
            buckets=RATE_BUCKETS)

    # -- capacities -----------------------------------------------------------

    def capacity_of(self, direction: LinkDirection) -> float:
        """Effective capacity of one link direction (policed + jittered)."""
        return self._capacities[self._direction_id(direction)]

    def on_link_state_change(self, link_name: str) -> None:
        """React to a link failing or recovering: re-derive capacities and
        re-share bandwidth (flows pinned to a failed link starve at the
        residual rate until cancelled or the link returns)."""
        self.topology.link(link_name)  # validate
        for direction, i in self._direction_ids.items():
            if direction.link_name == link_name:
                self._capacities[i] = self._derive_capacity(direction)
        self._reallocate()

    def _derive_capacity(self, direction: LinkDirection) -> float:
        link = self.topology.link(direction.link_name)
        cap = link.effective_capacity_bps(direction.src)
        if not link.failed:
            cap *= self.capacity_scale.get(link.name, 1.0)
        return cap

    def _direction_id(self, direction: LinkDirection) -> int:
        i = self._direction_ids.get(direction)
        if i is None:
            cap = self._derive_capacity(direction)
            i = self._direction_ids[direction] = len(self._capacities)
            self._capacities.append(cap)
        return i

    def _interned_spec(self, flow_id: Hashable,
                       directions: Sequence[LinkDirection],
                       ceiling_bps: float) -> FlowSpec:
        """*directions* as an allocator flow over interned direction ids."""
        return FlowSpec(flow_id, tuple(self._direction_id(d) for d in directions),
                        ceiling_bps)

    # -- public API -------------------------------------------------------------

    def start_transfer(
        self,
        directions: Sequence[LinkDirection],
        nbytes: float,
        ceiling_bps: float = inf,
        label: str = "",
        startup_deficit_bytes: float = 0.0,
    ) -> Transfer:
        """Begin a fluid transfer; returns a handle whose ``done`` signal
        fires with a :class:`TransferResult`.

        ``startup_deficit_bytes`` adds wire bytes representing the
        slow-start ramp deficit (computed by the caller's TCP model from
        the estimated initial rate).
        """
        if nbytes <= 0:
            raise TransferError(f"transfer size must be positive, got {nbytes}")
        if startup_deficit_bytes < 0:
            raise TransferError("startup deficit cannot be negative")
        if not directions and not isfinite(ceiling_bps):
            raise TransferError("transfer needs a path or a finite rate ceiling")
        flow_id = next(self._ids)
        wire = nbytes + startup_deficit_bytes
        transfer = Transfer(
            flow_id=flow_id,
            label=label or f"flow-{flow_id}",
            spec=FlowSpec(flow_id, tuple(directions), ceiling_bps),
            payload_bytes=nbytes,
            wire_bytes=wire,
            start_time=self.sim.now,
            done=Signal(self.sim, name=f"transfer-{flow_id}"),
            remaining_bytes=wire,
            _alloc_spec=self._interned_spec(flow_id, directions, ceiling_bps),
            _last_update=self.sim.now,
        )
        self._flows[flow_id] = transfer
        self.tracer.emit(
            self.sim.now, "net.engine", "flow_start",
            flow=flow_id, label=transfer.label, bytes=int(nbytes),
        )
        self._m_started.inc()
        self._m_active.set(len(self._flows))
        self._reallocate()
        return transfer

    def estimate_rate(
        self, directions: Sequence[LinkDirection], ceiling_bps: float = inf
    ) -> float:
        """Rate a new flow would get right now (phantom allocation)."""
        phantom = self._interned_spec("__phantom__", directions, ceiling_bps)
        specs = [t._alloc_spec for t in self._flows.values()] + [phantom]
        alloc = self._allocate(specs)
        return alloc["__phantom__"]

    def cancel(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer; its ``done`` signal fails."""
        if transfer.finished or transfer.flow_id not in self._flows:
            return
        self._drain_all()
        self._remove(transfer)
        self._m_cancelled.inc()
        self._m_active.set(len(self._flows))
        transfer.done.fail(TransferError(f"transfer {transfer.label} cancelled"))
        self._reallocate()

    @property
    def active_count(self) -> int:
        return len(self._flows)

    def active_transfers(self) -> List[Transfer]:
        return list(self._flows.values())

    def utilization_of(self, direction: LinkDirection) -> float:
        """Fraction of a link direction's capacity currently allocated."""
        cap = self.capacity_of(direction)
        used = sum(
            t.rate_bps for t in self._flows.values() if direction in t.spec.resources
        )
        return used / cap

    # -- internals -----------------------------------------------------------

    def _allocate(self, specs: List[FlowSpec]) -> Dict[Hashable, float]:
        """Max-min rates for allocator *specs* (interned direction ids)."""
        caps = self._capacities
        capacities = {i: caps[i] for spec in specs for i in spec.resources}
        return max_min_allocation(specs, capacities)

    def _drain_all(self) -> None:
        """Credit progress to every flow up to the current instant."""
        now = self.sim.now
        for t in self._flows.values():
            elapsed = now - t._last_update
            if elapsed > 0:
                t.remaining_bytes = max(
                    0.0, t.remaining_bytes - units.bytes_per_sec(t.rate_bps) * elapsed
                )
            t._last_update = now

    def _reallocate(self) -> None:
        self._drain_all()
        if not self._flows:
            return
        prof = self.sim.profiler
        if prof is None:
            self._do_reallocate()
        else:
            prof.count("net.engine.flows_touched", len(self._flows))
            t0 = prof.begin()
            try:
                self._do_reallocate()
            finally:
                prof.end_section("net.engine.reallocate", t0, self.sim.now)

    def _do_reallocate(self) -> None:
        self._m_reallocs.inc()
        alloc = self._allocate([t._alloc_spec for t in self._flows.values()])
        _complete = self._complete
        sim_schedule = self.sim.schedule
        for t in self._flows.values():
            t.rate_bps = alloc[t.flow_id]
            if t._completion_handle is not None:
                t._completion_handle.cancel()
                t._completion_handle = None
            if t.remaining_bytes <= 1e-9:
                # Completed exactly at this instant.
                sim_schedule(0.0, lambda t=t: _complete(t))
            elif t.rate_bps > 0:
                eta = units.transfer_seconds(t.remaining_bytes, t.rate_bps)
                t._completion_handle = sim_schedule(eta, lambda t=t: _complete(t))
            # rate == 0: flow is starved; it stays until a reallocation frees capacity

    def _complete(self, transfer: Transfer) -> None:
        if transfer.finished or transfer.flow_id not in self._flows:
            return
        self._drain_all()
        # Draining quantizes progress on the float time axis, so at multi-
        # Gbit/s rates a flow's own completion event can arrive with a few
        # time-ulps' worth of bytes still on the books (eps(now) * rate/8 —
        # ~1e-4 B at t=4e3 s and 10 Gbit/s, above any fixed byte epsilon).
        # Anything beyond that drift is a genuinely stale event (rate
        # changed after scheduling; the reallocation that changed it
        # scheduled a fresh handle) and must not complete the flow early.
        drift = (units.bytes_per_sec(transfer.rate_bps)
                 * _DRIFT_ULPS * ulp(max(self.sim.now, 1.0)))
        if transfer.remaining_bytes > max(1e-6, drift):
            return
        self._remove(transfer)
        result = TransferResult(
            label=transfer.label,
            nbytes=transfer.payload_bytes,
            start_time=transfer.start_time,
            end_time=self.sim.now,
        )
        self.tracer.emit(
            self.sim.now, "net.engine", "flow_end",
            flow=transfer.flow_id, label=transfer.label,
            duration=round(result.duration_s, 6),
        )
        self._m_completed.inc()
        self._m_payload.inc(transfer.payload_bytes)
        prof = self.sim.profiler
        if prof is not None:
            prof.count_bytes("net.engine.payload", transfer.payload_bytes)
        self._m_active.set(len(self._flows))
        self._m_duration.observe(result.duration_s)
        self._m_throughput.observe(result.mean_rate_bps)
        transfer.done.trigger(result)
        self._reallocate()

    def _remove(self, transfer: Transfer) -> None:
        if transfer._completion_handle is not None:
            transfer._completion_handle.cancel()
            transfer._completion_handle = None
        self._flows.pop(transfer.flow_id, None)
