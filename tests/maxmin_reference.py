"""Frozen reference copy of the original max-min allocator.

This is the progressive-filling implementation ``repro.net.flows`` shipped
before the allocator moved to interned resource indices, kept verbatim
(renamed ``reference_max_min_allocation``) as the oracle the property
tests in ``tests/test_net_flows.py`` compare the live allocator against,
bit for bit.  It is test-only: nothing under ``src/`` imports it.  Do not
edit or optimise it — its value is that it is the old code.
"""

from __future__ import annotations

from math import inf
from typing import Dict, Hashable, Iterable, Mapping

from repro.net.flows import FlowSpec

ResourceId = Hashable


def reference_max_min_allocation(
    flows: Iterable[FlowSpec],
    capacities_bps: Mapping[ResourceId, float],
    epsilon: float = 1e-9,
) -> Dict[Hashable, float]:
    """Water-filling max-min fair rates for *flows* over shared resources.

    Parameters
    ----------
    flows:
        The competing flows.  A flow referencing a resource missing from
        *capacities_bps* raises ``KeyError`` (construction bug upstream).
    capacities_bps:
        Capacity of each resource (bits/second).
    epsilon:
        Numerical slack when deciding saturation.

    Returns
    -------
    dict
        ``{flow_id: allocated rate}``.
    """
    flow_list = list(flows)
    ids = [f.flow_id for f in flow_list]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate flow ids in allocation request")

    alloc: Dict[Hashable, float] = {f.flow_id: 0.0 for f in flow_list}
    headroom: Dict[ResourceId, float] = {}
    users: Dict[ResourceId, set] = {}
    for f in flow_list:
        for r in f.resources:
            cap = capacities_bps[r]
            if cap <= 0:
                raise ValueError(f"resource {r!r} has non-positive capacity")
            headroom.setdefault(r, float(cap))
            users.setdefault(r, set()).add(f.flow_id)

    unfrozen = {f.flow_id: f for f in flow_list}

    # Each iteration freezes at least one flow, so it terminates.
    headroom_items = headroom.items
    unfrozen_items = unfrozen.items
    while unfrozen:
        # Largest uniform increment all unfrozen flows can take.
        delta = inf
        for r, room in headroom_items():
            active = sum(1 for fid in users[r] if fid in unfrozen)
            if active:
                delta = min(delta, room / active)
        for fid, f in unfrozen_items():
            delta = min(delta, f.ceiling_bps - alloc[fid])
        if delta is inf:
            raise ValueError("unbounded allocation: flow with no resources and no ceiling")
        delta = max(delta, 0.0)

        for fid in unfrozen:
            alloc[fid] += delta
        for r in headroom:
            active = sum(1 for fid in users[r] if fid in unfrozen)
            headroom[r] -= delta * active

        # Freeze ceiling-bound flows and flows on saturated resources.
        saturated = {r for r, room in headroom_items() if room <= epsilon}
        to_freeze = [
            fid
            for fid, f in unfrozen_items()
            if alloc[fid] >= f.ceiling_bps - epsilon or any(r in saturated for r in f.resources)
        ]
        if not to_freeze:
            # Numerical corner: freeze the flow closest to its limit.
            fid = min(
                unfrozen,
                key=lambda fid: min(
                    [unfrozen[fid].ceiling_bps - alloc[fid]]
                    + [headroom[r] for r in unfrozen[fid].resources]
                ),
            )
            to_freeze = [fid]
        for fid in to_freeze:
            del unfrozen[fid]

    return alloc
