"""Frozen reference copy of the original reschedule-everything engine.

Before completion events survived reallocations, ``NetworkEngine``
cancelled and re-scheduled every flow's completion event on every
reallocation, and a completion event that fired with bytes beyond the
drift allowance still owed was dropped.  :class:`ReferenceNetworkEngine`
keeps those two methods verbatim as the oracle the property test in
``tests/test_net_engine.py`` compares the live engine against: the same
flows complete or are cancelled, at end times equal to within float
rounding.  It is test-only: nothing under ``src/`` imports it.  Do not
edit or optimise it — its value is that it is the old code.

The original engine also credited every flow's progress on every start,
cancel, link-state change and completion; the live engine credits a flow
only when its rate changes and when its completion fires.  The original
``_drain_all``, ``_reallocate`` and ``cancel``, which the two methods
above relied on, are kept here verbatim too.  This class keeps no running
direction loads, so its ``estimate_rate`` is not part of the oracle.

:class:`ReferenceResidualEngine` is a second, separate oracle: the live
engine with the re-fill that summed each walked direction's outside
users afresh, where the live one takes their load from the running
direction loads.  Its ``_refill`` is kept verbatim.
"""

from __future__ import annotations

from math import ulp
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro import units
from repro.errors import TransferError
from repro.net.engine import (_DRIFT_ULPS, _SATURATED, NetworkEngine, Transfer,
                              TransferResult)
from repro.net.flows import FlowSpec, max_min_allocation


class ReferenceNetworkEngine(NetworkEngine):
    """``NetworkEngine`` with the original reallocation and completion."""

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

    def cancel(self, transfer: Transfer) -> None:
        """Abort an in-flight transfer; its ``done`` signal fails."""
        if transfer.finished or transfer.flow_id not in self._flows:
            return
        self._drain_all()
        self._remove(transfer)
        self._m_cancelled.inc()
        self._m_active.set(len(self._flows))
        transfer.done.fail(TransferError(f"transfer {transfer.label} cancelled"))
        self._rebalance()

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
        self._rebalance()


class ReferenceResidualEngine(NetworkEngine):
    """``NetworkEngine`` with the re-fill that summed outside users afresh."""

    def _refill(
        self, seeds: Iterable[Transfer], phantom: Optional[FlowSpec] = None,
    ) -> Tuple[List[Transfer], Dict[Hashable, float]]:
        """Max-min rates for the flows a change at *seeds* can reach.

        The component is every flow reachable from the seeds (and from
        *phantom*, a flow not in flight) over saturated directions.  It is
        re-filled against the capacity the flows outside it leave; if that
        saturates a direction outside flows also cross, they join it and
        it is re-filled again.  Flows outside keep their rates.  Returns
        the component in start order and its new rates (the phantom's
        too); no state is written.
        """
        users, caps, load = self._users, self._capacities, self._load
        comp: Dict[int, Transfer] = {}
        walked: Set[int] = set()  # directions of the component's flows
        frontier: List[Transfer] = list(seeds)
        extra: List[FlowSpec] = []

        def walk(resources: Sequence[int]) -> None:
            for d in resources:
                if d not in walked:
                    walked.add(d)
                    if load[d] >= caps[d] * _SATURATED:
                        frontier.extend(users[d].values())

        if phantom is not None:
            extra.append(phantom)
            walk(phantom.resources)
        elif not frontier:
            return [], {}
        while True:
            while frontier:
                t = frontier.pop()
                if t.flow_id not in comp:
                    comp[t.flow_id] = t
                    walk(t._alloc_spec.resources)
            flows = [comp[i] for i in sorted(comp)]
            specs = [t._alloc_spec for t in flows] + extra
            residual: Dict[int, float] = {}
            outside: Dict[int, Tuple[float, List[Transfer]]] = {}
            for d in walked:
                out = []
                taken = 0.0
                for i, t in users[d].items():
                    if i not in comp:
                        out.append(t)
                        taken += t.rate_bps
                residual[d] = caps[d] - taken
                if out:
                    outside[d] = (taken, out)
            alloc = max_min_allocation(specs, residual)
            if not outside:
                return flows, alloc
            # Merge: the outside users of a direction the re-fill saturated.
            used = dict.fromkeys(outside, 0.0)
            for s in specs:
                rate = alloc[s.flow_id]
                for d in s.resources:
                    if d in used:
                        used[d] += rate
            for d, (taken, out) in outside.items():
                if used[d] + taken >= caps[d] * _SATURATED:
                    frontier.extend(out)
            if not frontier:
                return flows, alloc
