"""Autonomous systems and Gao-Rexford business relationships.

The AS graph captures who is whose customer/provider/peer, plus
*per-neighbor export filters*.  Export filters are how we model the
research-network reality behind the case study: Internet2/CANARIE carry
commercial-peering routes (Google, Dropbox, Microsoft) only for members
who subscribe to the commercial peering service — which is why UMich
reaches Google Drive over a fat research peering while Purdue's traffic
falls back to congested commodity transit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.errors import TopologyError

__all__ = ["Relationship", "AutonomousSystem", "ASGraph"]


class Relationship(Enum):
    """Relationship of a neighbor, from the local AS's point of view."""

    CUSTOMER = "customer"  # neighbor pays us
    PROVIDER = "provider"  # we pay neighbor
    PEER = "peer"          # settlement-free


@dataclass
class AutonomousSystem:
    """One AS: a routing-policy domain."""

    number: int
    name: str
    description: str = ""

    def __post_init__(self) -> None:
        if self.number <= 0:
            raise TopologyError(f"AS number must be positive, got {self.number}")

    def __str__(self) -> str:
        return f"AS{self.number}({self.name})"


class ASGraph:
    """AS-level graph with business relationships and export filters."""

    def __init__(self) -> None:
        self.ases: Dict[int, AutonomousSystem] = {}
        self._by_name: Dict[str, AutonomousSystem] = {}
        # rel[(a, b)] = relationship of b from a's point of view
        self._rel: Dict[Tuple[int, int], Relationship] = {}
        self._neighbors: Dict[int, Set[int]] = {}
        # export filter: (announcer, neighbor) -> denied destination ASNs
        self._export_deny: Dict[Tuple[int, int], FrozenSet[int]] = {}

    # -- construction -------------------------------------------------------

    def add_as(self, asys: AutonomousSystem) -> AutonomousSystem:
        if asys.number in self.ases:
            raise TopologyError(f"duplicate AS number {asys.number}")
        if asys.name in self._by_name:
            raise TopologyError(f"duplicate AS name {asys.name!r}")
        self.ases[asys.number] = asys
        self._by_name[asys.name] = asys
        self._neighbors[asys.number] = set()
        return asys

    def _check(self, asn: int) -> None:
        if asn not in self.ases:
            raise TopologyError(f"unknown AS {asn}")

    def _connect(self, a: int, b: int, rel_of_b_from_a: Relationship) -> None:
        self._check(a)
        self._check(b)
        if a == b:
            raise TopologyError(f"AS{a} cannot neighbor itself")
        if (a, b) in self._rel:
            raise TopologyError(f"relationship AS{a}-AS{b} already defined")
        inverse = {
            Relationship.CUSTOMER: Relationship.PROVIDER,
            Relationship.PROVIDER: Relationship.CUSTOMER,
            Relationship.PEER: Relationship.PEER,
        }[rel_of_b_from_a]
        self._rel[(a, b)] = rel_of_b_from_a
        self._rel[(b, a)] = inverse
        self._neighbors[a].add(b)
        self._neighbors[b].add(a)

    def add_customer(self, provider: int, customer: int) -> None:
        """Declare *customer* buys transit from *provider*."""
        self._connect(provider, customer, Relationship.CUSTOMER)

    def add_peering(self, a: int, b: int) -> None:
        """Declare a settlement-free peering between *a* and *b*."""
        self._connect(a, b, Relationship.PEER)

    def set_export_deny(self, announcer: int, neighbor: int, dests: Iterable[int]) -> None:
        """Stop *announcer* advertising routes to the *dests* ASes to *neighbor*.

        Applied on top of the Gao-Rexford defaults; it can only *remove*
        announcements, never add ones the defaults forbid.
        """
        self._check(announcer)
        self._check(neighbor)
        if neighbor not in self._neighbors[announcer]:
            raise TopologyError(f"AS{announcer} and AS{neighbor} are not neighbors")
        self._export_deny[(announcer, neighbor)] = frozenset(dests)

    # -- queries ----------------------------------------------------------

    def by_name(self, name: str) -> AutonomousSystem:
        try:
            return self._by_name[name]
        except KeyError:
            raise TopologyError(f"unknown AS name {name!r}") from None

    def relationship(self, a: int, b: int) -> Relationship:
        """Relationship of *b* as seen from *a*."""
        try:
            return self._rel[(a, b)]
        except KeyError:
            raise TopologyError(f"AS{a} and AS{b} are not neighbors") from None

    def neighbors(self, asn: int) -> List[int]:
        self._check(asn)
        return sorted(self._neighbors[asn])

    def customers(self, asn: int) -> List[int]:
        return [n for n in self.neighbors(asn) if self._rel[(asn, n)] is Relationship.CUSTOMER]

    def providers(self, asn: int) -> List[int]:
        return [n for n in self.neighbors(asn) if self._rel[(asn, n)] is Relationship.PROVIDER]

    def peers(self, asn: int) -> List[int]:
        return [n for n in self.neighbors(asn) if self._rel[(asn, n)] is Relationship.PEER]

    def may_export(self, announcer: int, neighbor: int, dest: int) -> bool:
        """Does *announcer*'s export filter allow advertising *dest*?"""
        return dest not in self._export_deny.get((announcer, neighbor), ())

    def customer_cone(self, asn: int) -> Set[int]:
        """All ASes reachable by repeatedly descending customer edges."""
        self._check(asn)
        cone: Set[int] = set()
        stack = [asn]
        while stack:
            cur = stack.pop()
            if cur in cone:
                continue
            cone.add(cur)
            stack.extend(self.customers(cur))
        return cone

    def validate(self) -> None:
        """Reject provider-customer cycles (economic nonsense)."""
        state: Dict[int, int] = {}  # 0=visiting, 1=done

        def visit(asn: int, stack: List[int]) -> None:
            state[asn] = 0
            for cust in self.customers(asn):
                if state.get(cust) == 0:
                    cycle = stack[stack.index(cust):] if cust in stack else stack
                    raise TopologyError(f"provider-customer cycle involving AS{cust}: {cycle + [cust]}")
                if cust not in state:
                    visit(cust, stack + [cust])
            state[asn] = 1

        for asn in self.ases:
            if asn not in state:
                visit(asn, [asn])
