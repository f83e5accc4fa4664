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

from dataclasses import dataclass
from math import inf, isinf
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple, Union

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
        if not self.resources and isinf(self.ceiling_bps):
            raise ValueError(f"flow {self.flow_id!r}: needs resources or a finite ceiling")


def max_min_allocation(
    flows: Iterable[FlowSpec],
    capacities_bps: Union[Mapping[ResourceId, float], Sequence[float]],
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
        Capacity of each resource (bits/second): a mapping, or a sequence
        indexed by resource id when the ids are dense ints.
    epsilon:
        Numerical slack when deciding saturation.

    Returns
    -------
    dict
        ``{flow_id: allocated rate}``, in the order of *flows*.

    Resources crossed by the same flows form one *link class*, filled as
    its tightest member, which stays the tightest: all members take the
    same ``headroom -= delta * active``, and float rounding is monotone.
    One shared ``level`` is every unfrozen flow's rate, so the rates are
    bit-identical to per-link, per-flow progressive filling (DESIGN.md).
    """
    flow_list = list(flows)
    ids = [f.flow_id for f in flow_list]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate flow ids in allocation request")

    # Hash each resource once, in first-appearance order.
    users: Dict[ResourceId, List[int]] = {}  # resource -> flows crossing it
    for j, f in enumerate(flow_list):
        for r in f.resources:
            u = users.get(r)
            if u is None:
                users[r] = [j]
            elif u[-1] != j:  # a repeat within one flow counts once
                u.append(j)

    # Group resources crossed by the same flows into one link class.
    tightest: Dict[Tuple[int, ...], float] = {}  # class -> its headroom
    for r, u in users.items():
        cap = float(capacities_bps[r])
        if cap <= 0:
            raise ValueError(f"resource {r!r} has non-positive capacity")
        if cap < tightest.setdefault(key := tuple(u), cap):
            tightest[key] = cap
    members = list(tightest)  # class -> flows crossing it
    headroom = list(tightest.values())
    paths: List[List[int]] = [[] for _ in flow_list]  # flow -> its classes
    for c, u in enumerate(members):
        for j in u:
            paths[j].append(c)

    n = len(flow_list)
    active = [len(u) for u in members]  # unfrozen flows per class
    live = range(len(headroom))  # classes with an unfrozen flow
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
        # Largest uniform increment all unfrozen flows can take; classes
        # whose flows have all frozen drop out of ``live`` on the way.
        delta = ceilings[by_ceiling[low]] - level
        still = []
        for c in live:
            a = active[c]
            if a:
                still.append(c)
                share = headroom[c] / a
                if share < delta:
                    delta = share
        live = still
        if delta == inf:
            raise ValueError("unbounded allocation: flow with no resources and no ceiling")
        if delta < 0.0:
            delta = 0.0
        level += delta

        # Freeze flows on saturated classes, then ceiling-bound flows
        # (a prefix of the unfrozen ones in ceiling order).
        to_freeze = []
        for c in live:
            room = headroom[c] = headroom[c] - delta * active[c]
            if room <= epsilon:
                for j in members[c]:
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
            j = min((j for j in range(n) if not frozen[j]), key=lambda j: min(
                [ceilings[j] - level] + [headroom[c] for c in paths[j]]))
            frozen[j] = True
            to_freeze.append(j)
        for j in to_freeze:
            alloc[j] = level
            for c in paths[j]:
                active[c] -= 1
        unfrozen -= len(to_freeze)

    return dict(zip(ids, alloc))

