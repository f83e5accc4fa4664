"""Indexed route resolution ≡ the original linear-scan resolution.

``Topology.inter_as_links`` reads a per-AS-pair link index, and
``Router`` walks one cached shortest-path tree per source node.  The
oracle below is the code those replaced, frozen verbatim (module-level
functions instead of methods): the scan over every link, the Dijkstra
that stops at its destination, and the router methods that called them.
Both sides resolve over the *same* live topology while random link
failures and restores are applied through ``World``, so the index's
read-time ``failed`` filter and ``Router.invalidate`` are exercised on
every step.  Do not edit or optimise the frozen code — its value is that
it is the old code.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError, TopologyError
from repro.net.bgp import BgpRouteComputer
from repro.net.routing import ResolvedPath, Router
from repro.net.topology import Link, Node, NodeKind, Topology
from repro.topo import compile_spec, generate, materialize, preset_spec
from repro.topo.materialize import _route_pairs


# -- frozen reference ---------------------------------------------------------

def reference_inter_as_links(topo: Topology, asn_a: int, asn_b: int) -> List[Link]:
    """Operational links whose endpoints straddle the two given ASes."""
    out = []
    for link in topo.links.values():
        if link.failed:
            continue
        asns = {topo.nodes[link.u].asn, topo.nodes[link.v].asn}
        if asns == {asn_a, asn_b}:
            out.append(link)
    return out


def reference_intra_as_path(topo: Topology, src: str, dst: str) -> List[str]:
    """Shortest path (by IGP cost, tie-break delay) within one AS."""
    s, d = topo.node(src), topo.node(dst)
    if s.asn != d.asn:
        raise TopologyError(
            f"intra-AS path requested across ASes: {src}(AS{s.asn}) -> {dst}(AS{d.asn})"
        )
    if src == dst:
        return [src]
    asn = s.asn
    dist: Dict[str, Tuple[float, float]] = {src: (0.0, 0.0)}
    prev: Dict[str, str] = {}
    heap: List[Tuple[float, float, str]] = [(0.0, 0.0, src)]
    while heap:
        cost, delay, cur = heapq.heappop(heap)
        if cur == dst:
            break
        if (cost, delay) > dist.get(cur, (float("inf"), float("inf"))):
            continue
        for nbr, link in topo._adj[cur].items():
            if topo.nodes[nbr].asn != asn or link.failed:
                continue
            cand = (cost + link.igp_cost, delay + link.delay_s)
            if cand < dist.get(nbr, (float("inf"), float("inf"))):
                dist[nbr] = cand
                prev[nbr] = cur
                heapq.heappush(heap, (cand[0], cand[1], nbr))
    if dst not in dist:
        raise TopologyError(f"no intra-AS path {src} -> {dst} inside AS{asn}")
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return path


class ReferenceRouter(Router):
    """``Router`` with the original per-query resolution methods."""

    def __init__(self, topology, as_graph, policy):
        super().__init__(topology, as_graph, policy)
        self.bgp = BgpRouteComputer(
            as_graph,
            edge_usable=lambda a, b: bool(reference_inter_as_links(topology, a, b)),
        )
        self._igp_cost_cache: Dict[Tuple[str, str], float] = {}

    def _finalize(self, nodes: List[str]) -> ResolvedPath:
        topo = self.topology
        if len(nodes) < 2:
            raise RoutingError(f"path needs at least two hops, got {nodes!r}")
        src, dst = nodes[0], nodes[-1]
        links = topo.path_links(nodes)
        one_way = topo.path_delay_s(nodes) + self.per_hop_latency_s * (len(nodes) - 1)
        bottleneck = min(
            link.effective_capacity_bps(u) for u, link in zip(nodes, links)
        )
        as_seq: List[int] = []
        for name in nodes:
            asn = topo.node(name).asn
            if not as_seq or as_seq[-1] != asn:
                as_seq.append(asn)
        fw_cap = float("inf")
        for name in nodes[1:-1]:
            cap = topo.node(name).firewall_per_flow_bps
            if cap is not None:
                fw_cap = min(fw_cap, cap)
        return ResolvedPath(
            src=src,
            dst=dst,
            nodes=tuple(nodes),
            rtt_s=2.0 * one_way,
            loss=topo.path_loss(nodes),
            bottleneck_bps=bottleneck,
            as_sequence=tuple(as_seq),
            per_flow_cap_bps=fw_cap,
        )

    def _next_hop(self, cur: Node, src: Node, dst: Node) -> str:
        topo = self.topology

        rule = self.policy.match(cur.name, src.address, dst.asn)
        if rule is not None:
            link = topo.link(rule.out_link)
            if cur.name not in (link.u, link.v):
                raise RoutingError(
                    f"PBR rule at {cur.name} names link {rule.out_link} not attached to it"
                )
            if not link.failed:
                return link.other(cur.name)

        if cur.asn == dst.asn:
            path = reference_intra_as_path(topo, cur.name, dst.name)
            if len(path) < 2:
                raise RoutingError(f"no next hop from {cur.name} to {dst.name}")
            return path[1]

        route = self.bgp.best_route(cur.asn, dst.asn)
        next_as = route.next_as
        candidates = reference_inter_as_links(topo, cur.asn, next_as)
        if not candidates:
            raise RoutingError(
                f"BGP at AS{cur.asn} selects AS{next_as} toward AS{dst.asn} "
                f"but no inter-AS link exists"
            )
        best: Optional[Tuple[float, str, Link]] = None
        for link in candidates:
            border = link.u if topo.node(link.u).asn == cur.asn else link.v
            cost = self._igp_cost(cur.name, border)
            if cost is None:
                continue
            key = (cost, border)
            if best is None or key < (best[0], best[1]):
                best = (cost, border, link)
        if best is None:
            raise RoutingError(
                f"no IGP path from {cur.name} to any AS{next_as}-facing border of AS{cur.asn}"
            )
        _, border, link = best
        if border == cur.name:
            return link.other(cur.name)
        return reference_intra_as_path(topo, cur.name, border)[1]

    def _igp_cost(self, a: str, b: str) -> Optional[float]:
        if a == b:
            return 0.0
        key = (a, b)
        if key in self._igp_cost_cache:
            return self._igp_cost_cache[key]
        try:
            path = reference_intra_as_path(self.topology, a, b)
        except TopologyError:
            self._igp_cost_cache[key] = None  # type: ignore[assignment]
            return None
        cost = sum(link.igp_cost for link in self.topology.path_links(path))
        self._igp_cost_cache[key] = cost
        return cost


# -- the property ---------------------------------------------------------------

def _outcome(router: Router, src: str, dst: str):
    """A resolved path, or the error it raised (type and message)."""
    try:
        return router.resolve(src, dst)
    except (RoutingError, TopologyError) as exc:
        return type(exc).__name__, str(exc)


def _assert_equivalent(world, pairs) -> None:
    topo = world.topology
    asns = sorted({n.asn for n in topo.nodes.values()})
    for a in asns:
        for b in asns:
            assert topo.inter_as_links(a, b) == reference_inter_as_links(topo, a, b), (a, b)
    reference = ReferenceRouter(topo, world.as_graph, world.policy)
    for src, dst in pairs:
        assert _outcome(world.router, src, dst) == _outcome(reference, src, dst), (src, dst)


def _add_parallel_egress(topo: Topology, picks) -> None:
    """Give AS pairs a second border (generated worlds wire each pair once).

    Each pick takes an existing inter-AS link ``keep -- far`` and adds a
    router to ``keep``'s AS, wired to both ``keep`` (inside the AS) and
    ``far`` (a second link into the far AS), with the link's delay.  The
    near AS gains a second border toward the far AS; ``far`` gains a
    second, later-added link into the near AS.
    """
    inter = [l for _, l in sorted(topo.links.items())
             if topo.nodes[l.u].asn != topo.nodes[l.v].asn]
    for i, (which, side) in enumerate(picks):
        link = inter[which % len(inter)]
        keep, far = (link.u, link.v) if side else (link.v, link.u)
        name = f"extra{i}"
        topo.add_node(Node(name, NodeKind.ROUTER, topo.nodes[keep].asn, f"192.0.2.{i + 1}"))
        for end in (keep, far):
            topo.add_link(Link(name, end, capacity_bps=link.capacity_bps,
                               delay_s=link.delay_s))


#: extra border routers: (inter-AS link pick, which end's AS gets it)
_EXTRA = st.lists(st.tuples(st.integers(0, 10_000), st.booleans()), max_size=6)

#: IGP costs to overwrite the generated (all 1.0) ones with, cycled over
#: the links in name order; empty keeps the generated costs.  Few
#: distinct values make equal-cost ties common.
_COSTS = st.lists(st.sampled_from([0.0, 1.0, 2.0]), max_size=8)

#: one step: (fail?, pick) — fail the pick-th link, or restore the
#: pick-th currently failed one
_STEPS = st.lists(st.tuples(st.booleans(), st.integers(0, 10_000)), max_size=6)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), extra=_EXTRA, costs=_COSTS, steps=_STEPS)
def test_indexed_routing_matches_frozen_scan_under_failures(seed, extra, costs, steps):
    spec = preset_spec("smoke", seed=seed)
    world = materialize(compile_spec(spec, routes=True))
    topo = world.topology
    pairs = _route_pairs(generate(spec))
    # as compiled first: the preloaded routes against the reference
    _assert_equivalent(world, pairs)
    _add_parallel_egress(topo, extra)
    names = sorted(topo.links)
    if costs:
        for i, name in enumerate(names):
            topo.links[name].igp_cost = costs[i % len(costs)]
    world.router.invalidate()  # the topology changed under the router
    _assert_equivalent(world, pairs)
    for fail, pick in steps:
        if fail:
            world.fail_link(names[pick % len(names)])
        else:
            down = [n for n in names if topo.links[n].failed]
            if not down:
                continue
            world.restore_link(down[pick % len(down)])
        _assert_equivalent(world, pairs)
