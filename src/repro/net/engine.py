"""Fluid flow-level transfer engine on the discrete-event kernel.

Active transfers are fluid flows draining at their max-min fair share of
the directed link capacities they cross (re-filled on every flow arrival
or departure, for the flows the change can reach over saturated links).
This is the standard flow-level abstraction for WAN
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
from dataclasses import dataclass
from math import inf, isfinite, ulp
from typing import (Collection, Dict, Hashable, Iterable, List, Mapping,
                    Optional, Sequence, Set, Tuple, Union)

from repro import units
from repro.errors import TransferError
from repro.net.flows import FlowSpec, max_min_allocation
from repro.net.topology import LinkDirection, Topology
from repro.obs.metrics import DURATION_BUCKETS, RATE_BUCKETS, MetricsRegistry
from repro.sim.kernel import Signal, Simulator
from repro.sim.trace import Tracer

__all__ = ["InternedPath", "NetworkEngine", "Transfer", "TransferResult"]

#: Completion-event drift allowance, in ulps of the sim clock: a flow's
#: own completion event may under-credit progress by at most this many
#: float-time grains times its byte rate (see ``_complete``).
_DRIFT_ULPS = 64.0

#: A direction is saturated when its users' rates sum to at least this
#: share of its capacity.  The sum is taken in float, so a link filled
#: exactly falls short by rounding (six flows of 1e9/6 bit/s sum to
#: 999 999 999.9999999 on 1 Gbit/s); the allocator itself freezes a
#: resource once its headroom is within 1e-9 bit/s.  The engine keeps
#: each sum as a running load, which drifts from a fresh sum by about an
#: ulp of the capacity per rate change; this margin is ten million ulps
#: wide (DESIGN.md §5, decision 1).
_SATURATED = 1.0 - 1e-9


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


@dataclass(frozen=True)
class InternedPath:
    """A path interned by one engine (see :meth:`NetworkEngine.intern`).

    Valid for the engine's lifetime: ids never change, and a link-state
    change refreshes the capacities they index in place.
    """

    directions: Tuple[LinkDirection, ...]
    #: ``directions`` as the engine's interned ids, each listed once (a
    #: flow's rate counts once in a direction's load)
    resources: Tuple[int, ...]
    engine: "NetworkEngine"


#: a path as ``start_transfer`` and ``estimate_rate`` take it
Directions = Union[InternedPath, Sequence[LinkDirection]]


@dataclass
class Transfer:
    """Handle for an in-flight flow."""

    flow_id: int
    label: str
    payload_bytes: float
    wire_bytes: float  # payload + slow-start deficit
    start_time: float
    done: Signal
    #: wire bytes still owed as of ``_last_update``: progress is credited
    #: only when the rate changes and when the flow's completion fires
    remaining_bytes: float = 0.0
    rate_bps: float = 0.0
    #: the flow over the engine's interned direction ids: what the
    #: allocator sees, so no direction is re-hashed per pass.
    _alloc_spec: Optional[FlowSpec] = None
    _last_update: float = 0.0
    _completion_handle: Optional[object] = None

    @property
    def finished(self) -> bool:
        return self.done.triggered

    def _credit(self, now: float) -> None:
        """Credit progress at the current rate from ``_last_update`` to *now*."""
        elapsed = now - self._last_update
        if elapsed > 0:
            self.remaining_bytes = max(
                0.0, self.remaining_bytes - units.bytes_per_sec(self.rate_bps) * elapsed
            )
        self._last_update = now


class NetworkEngine:
    """Shared-bandwidth transfer execution over a topology."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        tracer: Optional[Tracer] = None,
        capacity_scale: Optional[Mapping[str, float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.sim = sim
        self.topology = topology
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: optional per-link multiplicative capacity jitter for this run,
        #: keyed by link name (applied to both directions).  Read only when
        #: a direction is interned or its link changes state, so a mapping
        #: may compute its values on first read; an empty-looking mapping
        #: is still consulted.
        self.capacity_scale = capacity_scale if capacity_scale is not None else {}
        self._flows: Dict[int, Transfer] = {}
        self._ids = itertools.count(1)
        #: every direction seen is interned to a dense id; capacities are
        #: cached by id and refreshed by ``on_link_state_change``.
        self._direction_ids: Dict[LinkDirection, int] = {}
        self._capacities: List[float] = []
        #: the flows crossing each interned direction, in start order
        self._users: List[Dict[int, Transfer]] = []
        #: the sum of those flows' rates per direction, kept as rates
        #: change; exactly ``0.0`` while a direction has no users
        self._load: List[float] = []
        #: flows the next rebalance re-fills from (see ``_refill``)
        self._dirty: Dict[int, Transfer] = {}
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
        #: the instruments copied the registry's flag when they were
        #: created, so with it off every metric call is skipped (the
        #: tracer may be switched on later: its flag is read live)
        self._metrics_on = metrics.enabled

    # -- capacities -----------------------------------------------------------

    def capacity_of(self, direction: LinkDirection) -> float:
        """Effective capacity of one link direction (policed + jittered)."""
        return self._capacities[self._direction_id(direction)]

    def on_link_state_change(self, link_name: str) -> None:
        """React to a link failing or recovering: re-derive capacities and
        re-share bandwidth (flows pinned to a failed link starve at the
        residual rate until cancelled or the link returns)."""
        self.topology.link(link_name)  # validate
        changed = []
        for direction, i in self._direction_ids.items():
            if direction.link_name == link_name:
                changed.append(i)
                self._capacities[i] = self._derive_capacity(direction)
                self._dirty.update(self._users[i])
        self._reallocate()
        # A running load carries rounding at the scale of the rates it
        # summed, which a failed link's residual capacity is far below:
        # re-sum the changed directions afresh.
        for i in changed:
            self._load[i] = sum((t.rate_bps for t in self._users[i].values()), 0.0)

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
            self._users.append({})
            self._load.append(0.0)
        return i

    # -- public API -------------------------------------------------------------

    def intern(self, directions: Directions) -> InternedPath:
        """*directions* interned once, for any number of flows on the path:
        ``start_transfer`` and ``estimate_rate`` take the handle without
        hashing a direction again.  A path this engine interned is
        returned as it is; one another engine interned is refused."""
        if type(directions) is InternedPath:
            if directions.engine is not self:
                raise TransferError("path was interned by another engine")
            return directions
        directions = tuple(directions)
        return InternedPath(directions, tuple(dict.fromkeys(
            self._direction_id(d) for d in directions)), self)

    def start_transfer(
        self,
        directions: Directions,
        nbytes: float,
        ceiling_bps: float = inf,
        label: str = "",
        startup_deficit_bytes: float = 0.0,
    ) -> Transfer:
        """Begin a fluid transfer; returns a handle whose ``done`` signal
        fires with a :class:`TransferResult`.

        *directions* is a path from :meth:`intern` or a sequence of link
        directions, interned here.  ``startup_deficit_bytes`` adds wire
        bytes representing the slow-start ramp deficit (computed by the
        caller's TCP model from the estimated initial rate).
        """
        if nbytes <= 0:
            raise TransferError(f"transfer size must be positive, got {nbytes}")
        if startup_deficit_bytes < 0:
            raise TransferError("startup deficit cannot be negative")
        path = self.intern(directions)
        if not path.resources and not isfinite(ceiling_bps):
            raise TransferError("transfer needs a path or a finite rate ceiling")
        flow_id = next(self._ids)
        now = self.sim.now
        wire = nbytes + startup_deficit_bytes
        transfer = Transfer(
            flow_id=flow_id,
            label=label or f"flow-{flow_id}",
            payload_bytes=nbytes,
            wire_bytes=wire,
            start_time=now,
            done=Signal(self.sim, name=f"transfer-{flow_id}"),
            remaining_bytes=wire,
            _alloc_spec=FlowSpec(flow_id, path.resources, ceiling_bps),
            _last_update=now,
        )
        self._flows[flow_id] = transfer
        users = self._users
        for d in path.resources:
            users[d][flow_id] = transfer
        self._dirty[flow_id] = transfer
        if self.tracer.enabled:
            self.tracer.emit(
                now, "net.engine", "flow_start",
                flow=flow_id, label=transfer.label, bytes=int(nbytes),
            )
        if self._metrics_on:
            self._m_started.inc()
            self._m_active.set(len(self._flows))
        self._reallocate()
        return transfer

    def estimate_rate(self, directions: Directions, ceiling_bps: float = inf) -> float:
        """Rate a new flow would get right now (phantom allocation).
        *directions* is as for :meth:`start_transfer`."""
        path = self.intern(directions)
        if not path.resources and not isfinite(ceiling_bps):
            raise TransferError("transfer needs a path or a finite rate ceiling")
        phantom = FlowSpec("__phantom__", path.resources, ceiling_bps)
        return self._refill((), phantom)[1]["__phantom__"]

    def cancel(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer; its ``done`` signal fails."""
        if transfer.finished or transfer.flow_id not in self._flows:
            return
        self._remove(transfer)
        if self._metrics_on:
            self._m_cancelled.inc()
            self._m_active.set(len(self._flows))
        transfer.done.fail(TransferError(f"transfer {transfer.label} cancelled"))
        self._rebalance()

    @property
    def active_count(self) -> int:
        return len(self._flows)

    def active_transfers(self) -> List[Transfer]:
        return list(self._flows.values())

    def utilization_of(self, direction: LinkDirection) -> float:
        """Fraction of a link direction's capacity currently allocated."""
        i = self._direction_id(direction)
        used = sum(t.rate_bps for t in self._users[i].values())
        return used / self._capacities[i]

    # -- internals -----------------------------------------------------------

    def _allocate(self, specs: List[FlowSpec]) -> Dict[Hashable, float]:
        """Max-min rates for allocator *specs* (interned direction ids)
        over the full capacities: the whole-fleet solve of the frozen
        reference engine in ``tests/engine_reference.py``."""
        return max_min_allocation(specs, self._capacities)

    def _refill(
        self, seeds: Collection[Transfer], phantom: Optional[FlowSpec] = None,
    ) -> Tuple[List[Transfer], Dict[Hashable, float]]:
        """Max-min rates for the flows a change at *seeds* can reach.

        The component is every flow reachable from the seeds (and from
        *phantom*, a flow not in flight) over saturated directions.  It is
        re-filled against the capacity the flows outside it leave; if that
        saturates a direction outside flows also cross, they join it and
        it is re-filled again.  Flows outside keep their rates.  Returns
        the component in start order and its new rates (the phantom's
        too); no state is written.

        A lone seed, or a phantom with no seed, is first tried by
        :meth:`_lone_fill`; the general walk takes over where it stops.
        """
        comp: Dict[int, Transfer] = {}
        extra: List[FlowSpec] = []
        lone = None
        if phantom is not None:
            extra.append(phantom)
            first = phantom
            if not seeds:
                lone = self._lone_fill(phantom, 0.0, 0)
        elif len(seeds) == 1:
            (seed,) = seeds
            first = seed._alloc_spec
            lone = self._lone_fill(first, seed.rate_bps, 1)
            if lone is not None:
                comp[seed.flow_id] = seed
        if lone is None:
            return self._fill(comp, set(), list(seeds), extra)
        rate, joiners = lone
        if not joiners:
            return list(comp.values()), {first.flow_id: rate}
        return self._fill(comp, set(first.resources), joiners, extra)

    def _lone_fill(
        self, spec: FlowSpec, own: float, mine: int,
    ) -> Optional[Tuple[float, List[Transfer]]]:
        """The first walk and fill of a component that starts as the one
        flow *spec*, in one pass over its directions.  *own* is the flow's
        current rate and *mine* the users it counts for on a direction
        (``0`` for a phantom).  Returns its rate and the flows that must
        join it: the users of a direction it crosses that is saturated
        (the walk's), or else of one the rate saturates that other flows
        also cross (the merge rule's).  With none, the rate stands.
        ``None`` where the fill would raise: no positive, finite bound.

        The residuals are ``_residuals``' own, and the rate is the lower
        of the ceiling and the tightest of them, as ``max_min_allocation``
        fills one flow, so every bit is the general fill's.
        """
        users, caps, load = self._users, self._capacities, self._load
        rate = spec.ceiling_bps
        shared: List[int] = []
        joiners: List[Transfer] = []
        for d in spec.resources:
            cap = caps[d]
            if len(users[d]) == mine:
                # the flow has the direction to itself
                if cap < rate:
                    rate = cap
            elif load[d] >= cap * _SATURATED:
                joiners.extend(users[d].values())
            else:
                shared.append(d)
                room = cap - (load[d] - own)
                if room < rate:
                    rate = room
        if joiners:
            return rate, joiners
        if not 0.0 < rate < inf:
            return None
        for d in shared:
            if rate + (load[d] - own) >= caps[d] * _SATURATED:
                joiners.extend(users[d].values())
        return rate, joiners

    def _fill(
        self, comp: Dict[int, Transfer], walked: Set[int],
        frontier: List[Transfer], extra: List[FlowSpec],
    ) -> Tuple[List[Transfer], Dict[Hashable, float]]:
        """The re-fill of ``_refill`` from the component *comp* whose flows'
        directions have been *walked*, with *frontier* still to join and
        the phantom, if any, in *extra*."""
        users, caps, load = self._users, self._capacities, self._load
        for s in extra:
            for d in s.resources:
                if d not in walked:
                    walked.add(d)
                    if load[d] >= caps[d] * _SATURATED:
                        frontier.extend(users[d].values())
        while True:
            while frontier:
                t = frontier.pop()
                if t.flow_id not in comp:
                    comp[t.flow_id] = t
                    for d in t._alloc_spec.resources:
                        if d not in walked:
                            walked.add(d)
                            if load[d] >= caps[d] * _SATURATED:
                                frontier.extend(users[d].values())
            flows = [comp[i] for i in sorted(comp)]
            specs = [t._alloc_spec for t in flows] + extra
            residual, outside = self._residuals(flows, walked)
            alloc = max_min_allocation(specs, residual)
            if not outside:
                return flows, alloc
            # Merge: the outside users of a direction the re-fill saturated
            # (listed only here: the residuals take their load whole).
            used = dict.fromkeys(outside, 0.0)
            for s in specs:
                rate = alloc[s.flow_id]
                for d in s.resources:
                    if d in used:
                        used[d] += rate
            for d, taken in outside.items():
                if used[d] + taken >= caps[d] * _SATURATED:
                    frontier.extend(t for i, t in users[d].items()
                                    if i not in comp)
            if not frontier:
                return flows, alloc

    def _residuals(
        self, flows: List[Transfer], walked: Iterable[int],
    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        """The capacity each *walked* direction leaves the component
        *flows*, and the load its outside users take where it has any.

        A direction whose users are all in the component keeps its full
        capacity exactly; any other takes its running load less the
        component's own rates on it, so no outside user is visited.
        """
        users, caps, load = self._users, self._capacities, self._load
        inside: Dict[int, int] = {}
        own: Dict[int, float] = {}
        for t in flows:
            rate = t.rate_bps
            for d in t._alloc_spec.resources:
                if d in inside:
                    inside[d] += 1
                    own[d] += rate
                else:
                    inside[d] = 1
                    own[d] = 0.0 + rate
        residual: Dict[int, float] = {}
        outside: Dict[int, float] = {}
        for d in walked:
            if inside.get(d, 0) == len(users[d]):
                residual[d] = caps[d]
            else:
                taken = outside[d] = load[d] - own.get(d, 0.0)
                residual[d] = caps[d] - taken
        return residual, outside

    def _reallocate(self) -> None:
        """Re-share bandwidth after a start or a link-state change (the
        reference engine in ``tests/engine_reference.py`` drains every
        flow here first)."""
        self._rebalance()

    def _rebalance(self) -> None:
        """Re-share bandwidth: re-fill the flows the dirty ones reach.
        With none dirty no rate can change, and nothing is done."""
        if not self._dirty:
            return
        prof = self.sim.profiler
        if prof is None:
            self._do_reallocate()
        else:
            t0 = prof.begin()
            try:
                self._do_reallocate()
            finally:
                prof.end_section("net.engine.reallocate", t0, self.sim.now)

    def _do_reallocate(self) -> None:
        dirty, self._dirty = self._dirty, {}
        flows, alloc = self._refill(dirty.values())
        if self._metrics_on:
            self._m_reallocs.inc()
        prof = self.sim.profiler
        if prof is not None:
            prof.count("net.engine.flows_touched", len(flows))
        _complete = self._complete
        sim_schedule = self.sim.schedule
        load = self._load
        now = self.sim.now
        for t in flows:
            rate = alloc[t.flow_id]
            handle = t._completion_handle
            if handle is not None:
                if rate == t.rate_bps and handle.active:
                    # Same rate, so the pending event's time still holds
                    # (up to rounding, which ``_complete`` absorbs).
                    continue
                handle.cancel()
                t._completion_handle = None
            t._credit(now)  # at the rate it has had since _last_update
            change = rate - t.rate_bps
            if change:
                for d in t._alloc_spec.resources:
                    load[d] += change
            t.rate_bps = rate
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
        transfer._credit(self.sim.now)
        # Crediting quantizes progress on the float time axis, so at multi-
        # Gbit/s rates a flow's own completion event can arrive with a few
        # time-ulps' worth of bytes still on the books (eps(now) * rate/8 —
        # ~1e-4 B at t=4e3 s and 10 Gbit/s, above any fixed byte epsilon).
        # An event kept across reallocations (see ``_do_reallocate``) can
        # also fire a little early, its time having been computed from an
        # earlier instant; anything beyond the drift allowance re-arms the
        # event for the residual bytes rather than complete the flow early.
        drift = (units.bytes_per_sec(transfer.rate_bps)
                 * _DRIFT_ULPS * ulp(max(self.sim.now, 1.0)))
        if transfer.remaining_bytes > max(1e-6, drift):
            eta = units.transfer_seconds(transfer.remaining_bytes,
                                         transfer.rate_bps)
            transfer._completion_handle = self.sim.schedule(
                eta, lambda: self._complete(transfer))
            return
        # Nothing left to cancel: the event that fired was the flow's own
        # handle, or a zero-delay completion scheduled with no handle.
        transfer._completion_handle = None
        self._remove(transfer)
        result = TransferResult(
            label=transfer.label,
            nbytes=transfer.payload_bytes,
            start_time=transfer.start_time,
            end_time=self.sim.now,
        )
        if self.tracer.enabled:
            self.tracer.emit(
                self.sim.now, "net.engine", "flow_end",
                flow=transfer.flow_id, label=transfer.label,
                duration=round(result.duration_s, 6),
            )
        prof = self.sim.profiler
        if prof is not None:
            prof.count_bytes("net.engine.payload", transfer.payload_bytes)
        if self._metrics_on:
            self._m_completed.inc()
            self._m_payload.inc(transfer.payload_bytes)
            self._m_active.set(len(self._flows))
            self._m_duration.observe(result.duration_s)
            self._m_throughput.observe(result.mean_rate_bps)
        transfer.done.trigger(result)
        self._rebalance()

    def _remove(self, transfer: Transfer) -> None:
        if transfer._completion_handle is not None:
            transfer._completion_handle.cancel()
            transfer._completion_handle = None
        self._flows.pop(transfer.flow_id, None)
        self._dirty.pop(transfer.flow_id, None)
        # The flows sharing a direction this one saturated may now grow.
        caps, load, rate = self._capacities, self._load, transfer.rate_bps
        for d in transfer._alloc_spec.resources:
            users = self._users[d]
            users.pop(transfer.flow_id, None)
            if load[d] >= caps[d] * _SATURATED:
                self._dirty.update(users)
            load[d] = load[d] - rate if users else 0.0
