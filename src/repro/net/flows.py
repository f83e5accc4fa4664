"""Max-min fair bandwidth allocation (progressive filling).

Every active transfer and background flow is a :class:`FlowSpec`: the set
of directed link resources it crosses plus an optional per-flow rate
ceiling (the TCP loss ceiling, or an application pacing limit).  The
allocator water-fills: all unfrozen flows grow at the same rate; a flow
freezes when a link it crosses saturates or it hits its ceiling.

Invariants (property-tested):

* no link's capacity is exceeded,
* no flow exceeds its ceiling,
* every flow is bottlenecked — it either sits at its ceiling or crosses a
  saturated link where it gets a maximal share (the max-min condition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

__all__ = ["FlowSpec", "max_min_allocation"]

ResourceId = Hashable


@dataclass(frozen=True)
class FlowSpec:
    """One flow competing for bandwidth."""

    flow_id: Hashable
    resources: Tuple[ResourceId, ...]
    ceiling_bps: float = inf

    def __post_init__(self) -> None:
        if self.ceiling_bps <= 0:
            raise ValueError(f"flow {self.flow_id!r}: ceiling must be positive")
        if not self.resources and self.ceiling_bps is inf:
            raise ValueError(f"flow {self.flow_id!r}: needs resources or a finite ceiling")


def max_min_allocation(
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
        A resource listed twice by one flow counts once.
    capacities_bps:
        Capacity of each resource (bits/second).
    epsilon:
        Numerical slack when deciding saturation.

    Returns
    -------
    dict
        ``{flow_id: allocated rate}``, in the order of *flows*.

    Each resource is hashed once per call and interned to a dense index;
    the filling loop then runs on lists, keeping for every resource the
    number of unfrozen flows crossing it and decrementing it as flows
    freeze.  The float operations — and their order — are those of plain
    progressive filling, so the rates are bit-identical to recomputing
    every count on every pass.
    """
    flow_list = list(flows)
    ids = [f.flow_id for f in flow_list]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate flow ids in allocation request")

    # Intern resources in first-appearance order; a resource repeated
    # within one flow counts once.
    index: Dict[ResourceId, int] = {}
    headroom: List[float] = []
    users: List[List[int]] = []  # resource -> flows crossing it
    paths: List[List[int]] = [[] for _ in flow_list]  # flow -> its resources
    for j, f in enumerate(flow_list):
        path = paths[j]
        for r in f.resources:
            i = index.get(r)
            if i is None:
                cap = capacities_bps[r]
                if cap <= 0:
                    raise ValueError(f"resource {r!r} has non-positive capacity")
                i = index[r] = len(headroom)
                headroom.append(float(cap))
                users.append([])
            elif users[i][-1] == j:
                continue  # already counted for this flow
            users[i].append(j)
            path.append(i)

    active = [len(u) for u in users]   # unfrozen flows per resource
    live = list(range(len(headroom)))  # resources with an unfrozen flow
    ceilings = [f.ceiling_bps for f in flow_list]
    alloc = [0.0] * len(flow_list)
    unfrozen = list(range(len(flow_list)))

    # Each iteration freezes at least one flow, so it terminates.
    while unfrozen:
        # Largest uniform increment all unfrozen flows can take.
        delta = inf
        for i in live:
            share = headroom[i] / active[i]
            if share < delta:
                delta = share
        for j in unfrozen:
            share = ceilings[j] - alloc[j]
            if share < delta:
                delta = share
        if delta is inf:
            raise ValueError("unbounded allocation: flow with no resources and no ceiling")
        delta = max(delta, 0.0)

        for j in unfrozen:
            alloc[j] += delta
        for i in live:
            headroom[i] -= delta * active[i]

        # Freeze ceiling-bound flows and flows on saturated resources.
        hit = {j for i in live if headroom[i] <= epsilon for j in users[i]}
        to_freeze = [
            j for j in unfrozen
            if alloc[j] >= ceilings[j] - epsilon or j in hit
        ]
        if not to_freeze:
            # Numerical corner: freeze the flow closest to its limit.
            to_freeze = [min(
                unfrozen,
                key=lambda j: min(
                    [ceilings[j] - alloc[j]] + [headroom[i] for i in paths[j]]
                ),
            )]
        frozen = set(to_freeze)
        for j in to_freeze:
            for i in paths[j]:
                active[i] -= 1
        unfrozen = [j for j in unfrozen if j not in frozen]
        live = [i for i in live if active[i]]

    return dict(zip(ids, alloc))
