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
    freeze.  Every unfrozen flow has taken the same increments from
    ``0.0``, so one shared ``level`` stands for all their rates, and the
    smallest unfrozen ceiling is read from a list presorted by ceiling.
    Float rounding is monotone (``a <= b`` implies ``fl(a - x) <=
    fl(b - x)``), so the increment, the freeze tests and the corner
    tie-break see exactly the values plain progressive filling computes
    per flow: the rates are bit-identical to it.
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

    n = len(flow_list)
    active = [len(u) for u in users]   # unfrozen flows per resource
    live = list(range(len(headroom)))  # resources with an unfrozen flow
    ceilings = [f.ceiling_bps for f in flow_list]
    by_ceiling = sorted(range(n), key=ceilings.__getitem__)
    low = 0  # by_ceiling[:low] are all frozen
    frozen = [False] * n
    unfrozen = n
    level = 0.0  # the rate of every unfrozen flow
    alloc = [0.0] * n

    # Each iteration freezes at least one flow, so it terminates.
    while unfrozen:
        while frozen[by_ceiling[low]]:
            low += 1
        # Largest uniform increment all unfrozen flows can take.  ``delta``
        # stays the ``inf`` object itself unless some share is smaller.
        delta = inf
        for i in live:
            share = headroom[i] / active[i]
            if share < delta:
                delta = share
        share = ceilings[by_ceiling[low]] - level
        if share < delta:
            delta = share
        if delta is inf:
            raise ValueError("unbounded allocation: flow with no resources and no ceiling")
        delta = max(delta, 0.0)
        level += delta

        # Freeze flows on saturated resources, then ceiling-bound flows
        # (a prefix of the unfrozen ones in ceiling order).
        to_freeze = []
        for i in live:
            room = headroom[i] = headroom[i] - delta * active[i]
            if room <= epsilon:
                for j in users[i]:
                    if not frozen[j]:
                        frozen[j] = True
                        to_freeze.append(j)
        while low < n:
            j = by_ceiling[low]
            if not frozen[j]:
                if level < ceilings[j] - epsilon:
                    break
                frozen[j] = True
                to_freeze.append(j)
            low += 1
        if not to_freeze:
            # Numerical corner: freeze the flow closest to its limit.
            j = min(
                (j for j in range(n) if not frozen[j]),
                key=lambda j: min(
                    [ceilings[j] - level] + [headroom[i] for i in paths[j]]
                ),
            )
            frozen[j] = True
            to_freeze.append(j)
        for j in to_freeze:
            alloc[j] = level
            for i in paths[j]:
                active[i] -= 1
        unfrozen -= len(to_freeze)
        live = [i for i in live if active[i]]

    return dict(zip(ids, alloc))
