"""Valley-free (Gao-Rexford) BGP route computation over an :class:`ASGraph`.

Implements the standard three-phase propagation model:

1. **customer routes** climb provider edges (everyone announces customer
   routes upward),
2. **peer routes** cross exactly one peering edge (ASes announce only
   customer routes to peers),
3. **provider routes** descend customer edges (ASes announce their best
   route to customers).

Selection at each AS prefers customer > peer > provider routes, then
shortest AS-path, then lowest next-hop ASN — with per-neighbor export
filters applied at every announcement (see :class:`repro.net.asn.ASGraph`).

The computed tables serve two consumers: hop-by-hop forwarding in
:mod:`repro.net.routing`, and the RouteViews-style route monitor the paper
suggests in its discussion section.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, List, Optional, Tuple

from repro.errors import RoutingError
from repro.net.asn import ASGraph

__all__ = ["RouteType", "BgpRoute", "BgpRouteComputer"]


class RouteType(IntEnum):
    """How a route was learned; lower values are preferred."""

    ORIGIN = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


@dataclass(frozen=True)
class BgpRoute:
    """Selected route at one AS toward a destination AS."""

    dest: int
    path: Tuple[int, ...]  # AS path, starting at the route's owner, ending at dest
    route_type: RouteType

    @property
    def length(self) -> int:
        """AS-path hop count (0 at the origin)."""
        return len(self.path) - 1

    @property
    def next_as(self) -> int:
        """Next AS along the path (the owner itself at the origin)."""
        return self.path[1] if len(self.path) > 1 else self.path[0]

    def __str__(self) -> str:
        return f"{'-'.join(map(str, self.path))} [{self.route_type.name.lower()}]"


def _key(route: BgpRoute) -> Tuple[RouteType, int, int]:
    """Selection key of *route*: (type, length, next-hop ASN), lower wins."""
    return (route.route_type, len(route.path) - 1, route.next_as)


def _beats(key: Tuple[RouteType, int, int], held: Optional[BgpRoute]) -> bool:
    """Does a candidate with selection *key* beat the *held* route?"""
    return held is None or key < _key(held)


class BgpRouteComputer:
    """Computes and caches per-destination routing tables.

    ``edge_usable(a, b)`` optionally gates each AS adjacency on physical
    reality — a BGP session needs a live link, so adjacencies whose
    inter-AS links are all down disappear from route computation (the
    session-reset behaviour real failures trigger).  Its answer is
    remembered per AS pair, so callers that change link state must
    :meth:`invalidate`.
    """

    def __init__(self, graph: ASGraph, edge_usable=None):
        self.graph = graph
        self.edge_usable = edge_usable
        self._cache: Dict[int, Dict[int, BgpRoute]] = {}
        self._usable_memo: Dict[Tuple[int, int], bool] = {}

    def _usable(self, a: int, b: int) -> bool:
        if self.edge_usable is None:
            return True
        usable = self._usable_memo.get((a, b))
        if usable is None:
            usable = self._usable_memo[(a, b)] = bool(self.edge_usable(a, b))
        return usable

    def table_for(self, dest: int) -> Dict[int, BgpRoute]:
        """Routing table ``{asn: selected route to dest}``; cached."""
        table = self._cache.get(dest)
        if table is None:
            table = self._compute(dest)
            self._cache[dest] = table
        return table

    def best_route(self, src: int, dest: int) -> BgpRoute:
        """Selected route at *src* toward *dest*; raises if unreachable."""
        route = self.table_for(dest).get(src)
        if route is None:
            raise RoutingError(f"AS{src} has no BGP route to AS{dest}")
        return route

    def invalidate(self) -> None:
        """Drop cached tables and adjacency usability (after topology/policy edits)."""
        self._cache.clear()
        self._usable_memo.clear()

    # -- computation ----------------------------------------------------------

    def _compute(self, dest: int) -> Dict[int, BgpRoute]:
        g = self.graph
        if dest not in g.ases:
            raise RoutingError(f"unknown destination AS {dest}")

        origin = BgpRoute(dest, (dest,), RouteType.ORIGIN)

        # A candidate announced by x over a path starting at x has length
        # len(path) and next hop x, so its key is known before it is built;
        # only a candidate that wins becomes a BgpRoute.

        # Phase 1: customer routes climb provider edges.
        customer: Dict[int, BgpRoute] = {dest: origin}
        heap: List[Tuple[int, int, Tuple[int, ...]]] = [(0, dest, (dest,))]
        while heap:
            length, x, path = heapq.heappop(heap)
            if customer[x].path != path:
                continue  # stale heap entry
            for p in g.providers(x):
                if p in path:
                    continue
                if not g.may_export(x, p, dest) or not self._usable(x, p):
                    continue
                if _beats((RouteType.CUSTOMER, len(path), x), customer.get(p)):
                    cand = customer[p] = BgpRoute(dest, (p,) + path, RouteType.CUSTOMER)
                    heapq.heappush(heap, (len(path), p, cand.path))

        # Phase 2: peer routes — one peering edge on top of a customer route.
        peer: Dict[int, BgpRoute] = {}
        for y, yroute in customer.items():
            for x in g.peers(y):
                if x in yroute.path:
                    continue
                if not g.may_export(y, x, dest) or not self._usable(y, x):
                    continue
                if _beats((RouteType.PEER, len(yroute.path), y), peer.get(x)):
                    peer[x] = BgpRoute(dest, (x,) + yroute.path, RouteType.PEER)

        # best "up" route per AS (customer beats peer by type rank)
        best: Dict[int, BgpRoute] = {}
        for x in sorted(set(customer) | set(peer)):
            for cand in (customer.get(x), peer.get(x)):
                if cand is not None and _beats(_key(cand), best.get(x)):
                    best[x] = cand

        # Phase 3: provider routes descend customer edges from every AS's
        # best exportable route.  An AS always exports its *selected* route
        # to customers (subject to filters); selection prefers up-routes, so
        # seeds are the up-route holders.
        heap2: List[Tuple[int, int, int]] = []  # (exportable length, next asn tiebreak, asn)
        for x, route in best.items():
            heapq.heappush(heap2, (route.length, route.next_as, x))
        while heap2:
            length, _tie, x = heapq.heappop(heap2)
            xroute = best.get(x)
            if xroute is None or xroute.length != length:
                continue  # stale
            for z in g.customers(x):
                if z in xroute.path:
                    continue
                if not g.may_export(x, z, dest) or not self._usable(x, z):
                    continue
                if _beats((RouteType.PROVIDER, len(xroute.path), x), best.get(z)):
                    best[z] = BgpRoute(dest, (z,) + xroute.path, RouteType.PROVIDER)
                    heapq.heappush(heap2, (len(xroute.path), x, z))

        return best

    # -- inspection (RouteViews-style) ---------------------------------------

    def dump(self, dest: int) -> str:
        """Human-readable routing table toward *dest* (for diagnostics)."""
        table = self.table_for(dest)
        lines = [f"routes toward AS{dest} ({self.graph.ases[dest].name}):"]
        for asn in sorted(table):
            lines.append(f"  AS{asn:<6} {table[asn]}")
        return "\n".join(lines)
