"""Network topology: nodes, links, and the graph connecting them.

Nodes are hosts (transfer endpoints), routers, or middleboxes (firewalls,
policed exchange fabrics).  Links are point-to-point with a capacity *per
direction* (each direction is an independent :class:`LinkDirection`
resource in the flow model), a one-way propagation delay, and a loss rate.

The topology also keeps address and hostname indexes so traceroute and DNS
can resolve simulated entities the way the paper's tooling did.
"""

from __future__ import annotations

import difflib
import heapq
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import TopologyError
from repro.geo.sites import SITES
from repro.net.address import parse_address

__all__ = ["NodeKind", "Node", "Link", "LinkDirection", "Topology", "IntraAsTree"]


class NodeKind(Enum):
    """Functional role of a node."""

    HOST = "host"
    ROUTER = "router"
    MIDDLEBOX = "middlebox"


@dataclass
class Node:
    """A device in the topology.

    Parameters
    ----------
    name:
        Unique topology-wide identifier (e.g. ``"ubc-pl"``).
    kind:
        Host / router / middlebox.
    asn:
        The autonomous system this node belongs to.
    address:
        Primary IPv4 address (string).  Unique within a topology.
    hostname:
        DNS-style name shown in traceroute output; defaults to *name*.
    site_name:
        Geographic site key (see :mod:`repro.geo.sites`); optional for
        synthetic tests.
    responds_to_traceroute:
        Middleboxes/firewalls that drop TTL-exceeded probes show up as
        ``* * *`` in traceroute (paper Fig. 6 hops 2, 10).
    firewall_per_flow_bps:
        Stateful-inspection throughput cap applied to every flow
        *transiting* this node.  This is the bottleneck Science DMZ [2]
        exists to bypass: campus firewalls are sized for many small
        flows, not single bulk transfers.  ``None`` = no cap.
    """

    name: str
    kind: NodeKind
    asn: int
    address: str
    hostname: str = ""
    site_name: str = ""
    responds_to_traceroute: bool = True
    firewall_per_flow_bps: Optional[float] = None

    def __post_init__(self) -> None:
        parse_address(self.address)  # validate
        if not self.hostname:
            self.hostname = self.name
        if self.firewall_per_flow_bps is not None and self.firewall_per_flow_bps <= 0:
            raise TopologyError(f"node {self.name}: firewall cap must be positive")

    @property
    def is_host(self) -> bool:
        return self.kind is NodeKind.HOST

    def __str__(self) -> str:
        return f"{self.name}({self.address})"


@dataclass(frozen=True)
class LinkDirection:
    """One direction of a link — the unit of capacity sharing."""

    link_name: str
    src: str  # node name the direction leaves from
    dst: str

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"


@dataclass
class Link:
    """A bidirectional point-to-point link.

    ``capacity_bps`` applies independently to each direction.  ``loss``
    is the per-direction packet-loss probability seen by TCP (feeds the
    Mathis ceiling).  ``policer_bps`` optionally rate-limits a direction
    below the physical capacity (see :mod:`repro.net.policer`); keyed by
    the name of the node the direction *leaves from*.
    """

    u: str
    v: str
    capacity_bps: float
    delay_s: float
    loss: float = 0.0
    name: str = ""
    policer_bps: Dict[str, float] = field(default_factory=dict)
    igp_cost: float = 1.0
    #: operational state; failed links are unusable for new paths and
    #: starve flows already on them (see World.fail_link)
    failed: bool = False

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise TopologyError(f"link {self.u}--{self.v}: capacity must be positive")
        if self.delay_s < 0:
            raise TopologyError(f"link {self.u}--{self.v}: delay must be non-negative")
        # IGP shortest paths (Dijkstra) are only exact for finite,
        # non-negative costs
        if not (0.0 <= self.igp_cost < math.inf):
            raise TopologyError(
                f"link {self.u}--{self.v}: IGP cost must be finite and non-negative"
            )
        if not (0.0 <= self.loss < 1.0):
            raise TopologyError(f"link {self.u}--{self.v}: loss must be in [0,1)")
        if not self.name:
            self.name = f"{self.u}--{self.v}"
        for src, rate in self.policer_bps.items():
            if src not in (self.u, self.v):
                raise TopologyError(f"link {self.name}: policer endpoint {src!r} not on link")
            if rate <= 0:
                raise TopologyError(f"link {self.name}: policer rate must be positive")

    def other(self, node: str) -> str:
        """The far endpoint as seen from *node*."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise TopologyError(f"node {node!r} not on link {self.name}")

    def direction_from(self, node: str) -> LinkDirection:
        """The :class:`LinkDirection` leaving *node*."""
        return LinkDirection(self.name, node, self.other(node))

    #: residual rate of a failed link: keeps the allocator's capacities
    #: positive while starving any flow still pinned to the link
    FAILED_RESIDUAL_BPS = 1.0

    def effective_capacity_bps(self, from_node: str) -> float:
        """Capacity of the direction leaving *from_node*, after policing."""
        if self.failed:
            return self.FAILED_RESIDUAL_BPS
        cap = self.capacity_bps
        pol = self.policer_bps.get(from_node)
        if pol is not None:
            cap = min(cap, pol)
        return cap


#: ``(dist, prev)`` of a shortest-path tree: ``dist[n]`` is the
#: ``(igp_cost, delay_s)`` total from the root, ``prev[n]`` the hop
#: before ``n`` (the root has a ``dist`` entry and no ``prev`` entry)
IntraAsTree = Tuple[Dict[str, Tuple[float, float]], Dict[str, str]]


class Topology:
    """Graph of nodes and links with lookup indexes."""

    def __init__(self) -> None:
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        self._adj: Dict[str, Dict[str, Link]] = {}
        self._by_address: Dict[str, Node] = {}
        # links by the (unordered) pair of ASes they join, in insertion
        # order: hot-potato egress takes the first of equal candidates
        self._by_as_pair: Dict[FrozenSet[int], List[Link]] = {}

    # -- construction -------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        if node.site_name and node.site_name not in SITES:
            near = difflib.get_close_matches(node.site_name, sorted(SITES), n=1)
            hint = f"; did you mean {near[0]!r}?" if near else ""
            raise TopologyError(
                f"node {node.name!r}: site {node.site_name!r} is not in the "
                f"repro.geo.sites registry{hint} (register_site() it first, "
                f"or leave site_name empty)"
            )
        if node.address in self._by_address:
            raise TopologyError(
                f"address {node.address} already assigned to "
                f"{self._by_address[node.address].name!r}"
            )
        self.nodes[node.name] = node
        self._adj[node.name] = {}
        self._by_address[node.address] = node
        return node

    def add_link(self, link: Link) -> Link:
        for end in (link.u, link.v):
            if end not in self.nodes:
                raise TopologyError(f"link {link.name}: unknown node {end!r}")
        if link.u == link.v:
            raise TopologyError(f"link {link.name}: self-loops not allowed")
        if link.name in self.links:
            raise TopologyError(f"duplicate link name {link.name!r}")
        if link.v in self._adj[link.u]:
            raise TopologyError(f"parallel link between {link.u!r} and {link.v!r}")
        self.links[link.name] = link
        self._adj[link.u][link.v] = link
        self._adj[link.v][link.u] = link
        pair = frozenset((self.nodes[link.u].asn, self.nodes[link.v].asn))
        self._by_as_pair.setdefault(pair, []).append(link)
        return link

    # -- lookups --------------------------------------------------------------

    def node(self, name: str) -> Node:
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def node_by_address(self, address: str) -> Node:
        try:
            return self._by_address[address]
        except KeyError:
            raise TopologyError(f"no node has address {address}") from None

    def link(self, name: str) -> Link:
        try:
            return self.links[name]
        except KeyError:
            raise TopologyError(f"unknown link {name!r}") from None

    def link_between(self, a: str, b: str) -> Link:
        link = self._adj.get(a, {}).get(b)
        if link is None:
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return link

    def neighbors(self, name: str) -> List[str]:
        self.node(name)
        return list(self._adj[name])

    def hosts(self) -> List[Node]:
        return [n for n in self.nodes.values() if n.is_host]

    def nodes_in_as(self, asn: int) -> List[Node]:
        return [n for n in self.nodes.values() if n.asn == asn]

    def inter_as_links(self, asn_a: int, asn_b: int) -> List[Link]:
        """Operational links whose endpoints straddle the two given ASes.

        In the order the links were added (failure state is read live,
        so failing or restoring a link needs no index upkeep).
        """
        pair = self._by_as_pair.get(frozenset((asn_a, asn_b)), ())
        return [link for link in pair if not link.failed]

    # -- path computation --------------------------------------------------

    def intra_as_tree(self, src: str) -> IntraAsTree:
        """Shortest-path tree from *src* to every node of its AS.

        Dijkstra over operational links that stay inside the AS, by IGP
        cost with one-way delay breaking ties (then node name, through
        the heap).  A node missing from ``dist`` is unreachable.
        """
        asn = self.node(src).asn
        dist: Dict[str, Tuple[float, float]] = {src: (0.0, 0.0)}
        prev: Dict[str, str] = {}
        heap: List[Tuple[float, float, str]] = [(0.0, 0.0, src)]
        while heap:
            cost, delay, cur = heapq.heappop(heap)
            if (cost, delay) > dist[cur]:
                continue
            for nbr, link in self._adj[cur].items():
                if self.nodes[nbr].asn != asn or link.failed:
                    continue
                cand = (cost + link.igp_cost, delay + link.delay_s)
                if cand < dist.get(nbr, (math.inf, math.inf)):
                    dist[nbr] = cand
                    prev[nbr] = cur
                    heapq.heappush(heap, (cand[0], cand[1], nbr))
        return dist, prev

    def intra_as_path(
        self, src: str, dst: str, tree: Optional[IntraAsTree] = None
    ) -> List[str]:
        """Shortest path (by IGP cost, tie-break delay) within one AS.

        Walks :meth:`intra_as_tree` of *src*, or *tree* when the caller
        already holds that tree for the current link state.  Raises
        :class:`TopologyError` if endpoints differ in AS or no path
        exists inside the AS.
        """
        s, d = self.node(src), self.node(dst)
        if s.asn != d.asn:
            raise TopologyError(
                f"intra-AS path requested across ASes: {src}(AS{s.asn}) -> {dst}(AS{d.asn})"
            )
        if src == dst:
            return [src]
        dist, prev = tree if tree is not None else self.intra_as_tree(src)
        if dst not in dist:
            raise TopologyError(f"no intra-AS path {src} -> {dst} inside AS{s.asn}")
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path

    def path_links(self, node_path: List[str]) -> List[Link]:
        """Links along a node path."""
        return [self.link_between(u, v) for u, v in zip(node_path, node_path[1:])]

    def path_directions(self, node_path: List[str]) -> List[LinkDirection]:
        """Directed link resources along a node path."""
        return [self.link_between(u, v).direction_from(u) for u, v in zip(node_path, node_path[1:])]

    def path_delay_s(self, node_path: List[str]) -> float:
        """One-way propagation delay along a node path."""
        return sum(link.delay_s for link in self.path_links(node_path))

    def path_loss(self, node_path: List[str]) -> float:
        """End-to-end loss probability along a node path."""
        keep = 1.0
        for link in self.path_links(node_path):
            keep *= 1.0 - link.loss
        return 1.0 - keep

    def validate(self) -> None:
        """Sanity checks after construction; raises on problems."""
        for name, nbrs in self._adj.items():
            if self.nodes[name].is_host and len(nbrs) == 0:
                raise TopologyError(f"host {name!r} has no access link")

    def __str__(self) -> str:
        return f"<Topology {len(self.nodes)} nodes, {len(self.links)} links>"
