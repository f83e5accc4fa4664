"""End-to-end path resolution: BGP + IGP + PBR, hop by hop.

:class:`Router` walks a packet's path the way the network forwards it:

1. a PBR rule at the current node wins (source-sensitive overrides),
2. inside the destination AS, follow the IGP shortest path to the host,
3. otherwise follow BGP's next AS, exiting via the *hot-potato* border
   (the border router nearest in IGP cost), then cross the inter-AS link.

The resulting :class:`ResolvedPath` carries everything the transfer models
need: the node sequence, the directed link resources, end-to-end RTT and
loss, and the bottleneck capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import RoutingError, TopologyError
from repro.net.asn import ASGraph
from repro.net.bgp import BgpRouteComputer
from repro.net.policy import PolicyTable
from repro.net.topology import IntraAsTree, Link, LinkDirection, Node, Topology

__all__ = ["ResolvedPath", "Router"]

_MAX_HOPS = 64


@dataclass(frozen=True)
class ResolvedPath:
    """A concrete forwarding path between two hosts."""

    src: str
    dst: str
    nodes: Tuple[str, ...]
    rtt_s: float
    loss: float
    bottleneck_bps: float
    as_sequence: Tuple[int, ...]
    #: tightest per-flow stateful-inspection cap among transited
    #: middleboxes (inf when no firewall is on the path)
    per_flow_cap_bps: float = float("inf")

    @property
    def hop_count(self) -> int:
        return len(self.nodes) - 1

    def describe(self) -> str:
        return " -> ".join(self.nodes)


class Router:
    """Resolves forwarding paths over a topology + AS graph + PBR table."""

    def __init__(
        self,
        topology: Topology,
        as_graph: ASGraph,
        policy: Optional[PolicyTable] = None,
        per_hop_latency_s: float = 50e-6,
    ):
        self.topology = topology
        self.as_graph = as_graph
        self.policy = policy if policy is not None else PolicyTable()
        # BGP adjacencies require a live inter-AS link (failures reset
        # the session and withdraw the routes learned over it)
        self.bgp = BgpRouteComputer(
            as_graph,
            edge_usable=lambda a, b: bool(topology.inter_as_links(a, b)),
        )
        #: store-and-forward / switching latency added per hop to RTT
        self.per_hop_latency_s = per_hop_latency_s
        self._path_cache: Dict[Tuple[str, str], ResolvedPath] = {}
        #: precompiled hop lists not yet finalised, by (src, dst); see
        #: :meth:`preload`
        self._pending: Dict[Tuple[str, str], List[str]] = {}
        #: intra-AS shortest-path tree per source node, for the current
        #: link state (every IGP query from one node shares its tree)
        self._trees: Dict[str, IntraAsTree] = {}
        #: next hop at a router without PBR rules, by (router, destination
        #: host) inside the destination's AS and by (router, destination
        #: AS) elsewhere, for the current link state; see :meth:`_next_hop`
        self._next_hops: Dict[Tuple[str, Union[str, int]], str] = {}
        #: hops from a node to a destination host over rule-free
        #: routers, by (node, destination host), for the current link
        #: state; see :meth:`walk`
        self._suffixes: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        #: next-hop decisions made, and answered from ``_next_hops``
        self.next_hops_computed = 0
        self.next_hops_reused = 0
        #: walks completed by joining a remembered suffix
        self.suffixes_joined = 0

    # -- public API ---------------------------------------------------------

    def resolve(self, src: str, dst: str) -> ResolvedPath:
        """Forwarding path from host *src* to host *dst* (cached)."""
        key = (src, dst)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        nodes = self._pending.pop(key, None)
        if nodes is None:
            nodes = self.walk(src, dst)
        path = self._path_cache[key] = self._finalize(nodes)
        return path

    def walk(self, src: str, dst: str) -> List[str]:
        """Hop list of the forwarding path from host *src* to host *dst*.

        Neither finalised nor cached: the route compile keeps only the
        hops.  Raises :class:`RoutingError` for ``src == dst``, a
        forwarding loop, a path over ``_MAX_HOPS`` hops or no next hop,
        and :class:`TopologyError` for an unknown node or a destination
        unreachable inside its own AS.

        Only a PBR rule reads the packet's source, so the hops from a
        node to *dst* over routers holding no rule are the same for
        every source until :meth:`invalidate`.  A finished walk
        remembers each such suffix after its source.  A later walk
        joins one at the first hop that has one, when the joined path
        fits ``_MAX_HOPS`` and revisits no node already walked;
        otherwise it goes on hop by hop, so a loop or an overlong path
        is reported as it would be without them.
        """
        topo = self.topology
        s, d = topo.node(src), topo.node(dst)
        if src == dst:
            raise RoutingError(f"source and destination are the same host: {src}")
        nodes = [src]
        cur = s
        while cur is not d:
            if len(nodes) > _MAX_HOPS:
                raise RoutingError(f"path {src}->{dst} exceeds {_MAX_HOPS} hops")
            nxt = self._next_hop(cur, s, d)
            if nxt in nodes:
                raise RoutingError(
                    f"forwarding loop resolving {src}->{dst}: revisit {nxt} "
                    f"(path so far: {' -> '.join(nodes)})"
                )
            suffix = self._suffixes.get((nxt, dst))
            if (suffix is not None
                    and len(nodes) + len(suffix) - 1 <= _MAX_HOPS
                    and set(suffix).isdisjoint(nodes)):
                self.suffixes_joined += 1
                if len(nodes) > 1:
                    self._remember_suffixes(nodes[1:], suffix)
                nodes.extend(suffix)
                return nodes
            nodes.append(nxt)
            cur = topo.node(nxt)
        self._remember_suffixes(nodes[1:-1], (dst,))
        return nodes

    def invalidate(self) -> None:
        """Drop caches after topology or policy changes.

        Precompiled hop lists not yet finalised, the next-hop memo and
        the remembered suffixes are dropped too: they were computed for
        the old topology.
        """
        self._path_cache.clear()
        self._pending.clear()
        self._trees.clear()
        self._next_hops.clear()
        self._suffixes.clear()
        self.bgp.invalidate()

    def preload(self, node_paths: Iterable[Sequence[str]]) -> int:
        """Store precompiled node sequences for :meth:`resolve` to use.

        Each sequence is the full hop list of one forwarding path (as
        :class:`ResolvedPath.nodes` would report it), stored under its
        ``(src, dst)`` pair in place of any path cached for that pair.
        :meth:`resolve` derives the attributes — RTT, loss, bottleneck,
        AS sequence, firewall caps — from the live topology on the
        pair's first lookup, so a preloaded path is bit-identical to one
        finalised at load time, and a world pays only for the paths it
        uses.  Used by ``repro.topo`` so the first transfer over a large
        compiled world doesn't pay BGP resolution.  A sequence of fewer
        than two hops raises :class:`RoutingError` here, not at first
        use.  Returns the number of paths stored.
        """
        n = 0
        for nodes in node_paths:
            if len(nodes) < 2:
                raise RoutingError(f"path needs at least two hops, got {nodes!r}")
            key = (nodes[0], nodes[-1])
            self._path_cache.pop(key, None)
            self._pending[key] = list(nodes)
            n += 1
        return n

    def path_directions(self, path: ResolvedPath) -> List[LinkDirection]:
        """Directed link resources traversed by *path*."""
        return self.topology.path_directions(list(path.nodes))

    # -- resolution ------------------------------------------------------------

    def _finalize(self, nodes: List[str]) -> ResolvedPath:
        """Derive the :class:`ResolvedPath` attributes from a hop list."""
        topo = self.topology
        if len(nodes) < 2:
            raise RoutingError(f"path needs at least two hops, got {nodes!r}")
        src, dst = nodes[0], nodes[-1]
        links = topo.path_links(nodes)
        # the same sums, in the same order, as Topology.path_delay_s and
        # Topology.path_loss, over the one list of links
        delay = sum(link.delay_s for link in links)
        keep = 1.0
        for link in links:
            keep *= 1.0 - link.loss
        one_way = delay + self.per_hop_latency_s * (len(nodes) - 1)
        bottleneck = min(
            link.effective_capacity_bps(u) for u, link in zip(nodes, links)
        )
        as_seq: List[int] = []
        for name in nodes:
            asn = topo.node(name).asn
            if not as_seq or as_seq[-1] != asn:
                as_seq.append(asn)
        # per-flow firewall caps apply to transit through middleboxes
        # (endpoints inspect their own traffic for free)
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
            loss=1.0 - keep,
            bottleneck_bps=bottleneck,
            as_sequence=tuple(as_seq),
            per_flow_cap_bps=fw_cap,
        )

    def _next_hop(self, cur: Node, src: Node, dst: Node) -> str:
        """Next hop from *cur* for traffic *src* -> *dst*, memoised.

        Only a PBR rule reads the source.  At a router without one the
        decision is IGP toward the destination host inside its AS and
        BGP plus hot potato toward its AS elsewhere, so it is memoised
        under (router, host) or (router, AS) until :meth:`invalidate`.
        A router holding rules decides per packet source, every time.
        """
        if self.policy.holds_rules(cur.name):
            self.next_hops_computed += 1
            return self._decide_next_hop(cur, src, dst)
        key = (cur.name, dst.name if cur.asn == dst.asn else dst.asn)
        hop = self._next_hops.get(key)
        if hop is None:
            self.next_hops_computed += 1
            hop = self._uplink_hop(cur, src, dst)
            if hop is None:
                hop = self._decide_next_hop(cur, src, dst)
            self._next_hops[key] = hop
        else:
            self.next_hops_reused += 1
        return hop

    def _uplink_hop(self, cur: Node, src: Node, dst: Node) -> Optional[str]:
        """Next hop of a single-homed node from its neighbour's, or None.

        When *cur*'s one link is live and leads to a router *N* of its
        own AS, and neither holds a PBR rule, every IGP path out of
        *cur* starts with that link and *cur* is no border, so *cur*
        forwards to *N* exactly when *N* is *dst* or *N*'s own decision
        succeeds.  None means "decide in full", which is also how an
        error is reported as *cur*'s own rather than *N*'s.
        """
        topo = self.topology
        nbrs = topo.neighbors(cur.name)
        if len(nbrs) != 1:
            return None
        uplink = nbrs[0]
        nbr = topo.node(uplink)
        # a single-homed neighbour would ask *cur* back
        if (nbr.asn != cur.asn or topo.link_between(cur.name, uplink).failed
                or self.policy.holds_rules(uplink)
                or len(topo.neighbors(uplink)) == 1):
            return None
        if nbr is not dst:
            try:
                self._next_hop(nbr, src, dst)
            except (RoutingError, TopologyError):
                return None
        return uplink

    def _remember_suffixes(self, prefix: List[str],
                           suffix: Tuple[str, ...]) -> None:
        """Remember the suffixes of a finished walk that start in *prefix*.

        *prefix* is the walk between its source and *suffix*, which ends
        at the destination and is remembered already or is the
        destination alone.  Each longer suffix is remembered until a
        router holding rules is met, walking back.  The source's own is
        not: only a walk through the source could join it, and routes
        start at hosts.
        """
        dst = suffix[-1]
        for name in reversed(prefix):
            if self.policy.holds_rules(name):
                break
            suffix = (name,) + suffix
            self._suffixes[(name, dst)] = suffix

    def _decide_next_hop(self, cur: Node, src: Node, dst: Node) -> str:
        topo = self.topology

        # 1. policy-based routing overrides (a failed out-link falls
        #    through to BGP, like a next-hop-unreachable PBR rule)
        rule = self.policy.match(cur.name, src.address, dst.asn)
        if rule is not None:
            link = topo.link(rule.out_link)
            if cur.name not in (link.u, link.v):
                raise RoutingError(
                    f"PBR rule at {cur.name} names link {rule.out_link} not attached to it"
                )
            if not link.failed:
                return link.other(cur.name)

        # 2. destination AS: plain IGP
        if cur.asn == dst.asn:
            path = topo.intra_as_path(cur.name, dst.name, self._tree(cur.name))
            if len(path) < 2:
                raise RoutingError(f"no next hop from {cur.name} to {dst.name}")
            return path[1]

        # 3. BGP next AS, hot-potato egress selection
        route = self.bgp.best_route(cur.asn, dst.asn)
        next_as = route.next_as
        candidates = topo.inter_as_links(cur.asn, next_as)
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
        return topo.intra_as_path(cur.name, border, self._tree(cur.name))[1]

    def _tree(self, src: str) -> IntraAsTree:
        """The cached intra-AS shortest-path tree rooted at *src*."""
        tree = self._trees.get(src)
        if tree is None:
            tree = self._trees[src] = self.topology.intra_as_tree(src)
        return tree

    def _igp_cost(self, a: str, b: str) -> Optional[float]:
        """Total IGP cost a->b within one AS, or None if unreachable."""
        # the tree sums link costs along the path, root first (0.0 at a)
        reached = self._tree(a)[0].get(b)
        return None if reached is None else reached[0]
