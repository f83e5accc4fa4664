"""The router's walk ≡ a frozen walk that remembers nothing.

``Router.walk`` reuses what it has decided: ``_next_hop`` memoises each
decision of a router that holds no PBR rule, per (router, destination
AS) or, inside the destination's AS, per (router, destination host); a
single-homed node takes its one uplink from its neighbour's decision;
and a walk joins the rule-free suffix an earlier walk found from its
current hop to the same destination.  ``Router.invalidate`` drops all of
it.  The reference below is the walk and next-hop decision as they were
before any of that, frozen here so that the comparison does not test
the router's code against itself: it decides every hop afresh, with a
fresh BGP computer and a fresh shortest-path tree per decision.  Only
its hop bound is corrected: a path of exactly ``_MAX_HOPS`` hops
resolves (no generated world comes near it).

Both walk every standard route pair of generated worlds, plus pairs
from and to added single-homed hosts: some with a live uplink, some
whose uplink is failed, and some whose uplink crosses into another AS.
The worlds carry PBR rules of each kind — source-prefix,
destination-AS, one whose out-link is failed, a pair that forms a loop,
one naming a link not attached to its router — while random link
failures and restores go through ``World``, so what the world's router
kept across steps must match a cold walk, errors included.
"""

from __future__ import annotations

import ipaddress
from typing import List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError, TopologyError
from repro.net.bgp import BgpRouteComputer
from repro.net.policy import PbrRule
from repro.net.routing import _MAX_HOPS
from repro.net.topology import Link, Node, NodeKind
from repro.topo import compile_spec, generate, materialize, preset_spec
from repro.topo.materialize import _route_pairs


class ReferenceRouter:
    """Every next hop decided afresh, by the walk the memo replaced."""

    def __init__(self, topology, as_graph, policy):
        self.topology = topology
        self.policy = policy
        self.bgp = BgpRouteComputer(
            as_graph,
            edge_usable=lambda a, b: bool(topology.inter_as_links(a, b)),
        )

    def walk(self, src: str, dst: str) -> List[str]:
        topo = self.topology
        s, d = topo.node(src), topo.node(dst)
        if src == dst:
            raise RoutingError(f"source and destination are the same host: {src}")
        nodes = [s.name]
        cur = s
        for _ in range(_MAX_HOPS):
            if cur.name == d.name:
                break
            nxt = self._decide_next_hop(cur, s, d)
            if nxt in nodes:
                raise RoutingError(
                    f"forwarding loop resolving {src}->{dst}: revisit {nxt} "
                    f"(path so far: {' -> '.join(nodes)})"
                )
            nodes.append(nxt)
            cur = topo.node(nxt)
        else:
            if cur.name != d.name:  # the last hop may arrive
                raise RoutingError(f"path {src}->{dst} exceeds {_MAX_HOPS} hops")
        return nodes

    def _decide_next_hop(self, cur: Node, src: Node, dst: Node) -> str:
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
            path = topo.intra_as_path(cur.name, dst.name)
            if len(path) < 2:
                raise RoutingError(f"no next hop from {cur.name} to {dst.name}")
            return path[1]
        route = self.bgp.best_route(cur.asn, dst.asn)
        next_as = route.next_as
        candidates = topo.inter_as_links(cur.asn, next_as)
        if not candidates:
            raise RoutingError(
                f"BGP at AS{cur.asn} selects AS{next_as} toward AS{dst.asn} "
                f"but no inter-AS link exists"
            )
        dist = topo.intra_as_tree(cur.name)[0]
        best: Optional[Tuple[float, str, Link]] = None
        for link in candidates:
            border = link.u if topo.node(link.u).asn == cur.asn else link.v
            reached = dist.get(border)
            if reached is None:
                continue
            if best is None or (reached[0], border) < (best[0], best[1]):
                best = (reached[0], border, link)
        if best is None:
            raise RoutingError(
                f"no IGP path from {cur.name} to any AS{next_as}-facing border of AS{cur.asn}"
            )
        _, border, link = best
        if border == cur.name:
            return link.other(cur.name)
        return topo.intra_as_path(cur.name, border)[1]


def _outcome(router, src: str, dst: str):
    """A hop list, or the error it raised (type and message)."""
    try:
        return router.walk(src, dst)
    except (RoutingError, TopologyError) as exc:
        return type(exc).__name__, str(exc)


def _assert_equivalent(world, pairs) -> None:
    reference = ReferenceRouter(world.topology, world.as_graph, world.policy)
    for src, dst in pairs:
        assert _outcome(world.router, src, dst) == _outcome(reference, src, dst), (src, dst)


def _install_rules(world, routes, picks) -> list:
    """PBR rules at routers on compiled routes; returns links to fail.

    Each pick is ``(kind, route, hop, which, prefix_len)``: the rule
    sits at the ``hop``-th interior node of the ``route``-th compiled
    route and leaves by the ``which``-th link attached to it, for
    traffic to that route's destination AS.
    """
    topo, policy = world.topology, world.policy
    to_fail = []
    for kind, route, hop, which, prefix_len in picks:
        nodes = routes[route % len(routes)]
        at = nodes[1:-1][hop % (len(nodes) - 2)]
        src, dst = topo.node(nodes[0]), topo.node(nodes[-1])
        attached = sorted(topo._adj[at].values(), key=lambda link: link.name)
        out = attached[which % len(attached)]
        dest = frozenset({dst.asn})
        if kind == "source":
            prefix = ipaddress.ip_network(f"{src.address}/{prefix_len}", strict=False)
            policy.install(PbrRule(node=at, out_link=out.name, dest_asns=dest,
                                   src_prefixes=frozenset({prefix.with_prefixlen})))
        elif kind == "destination":
            policy.install(PbrRule(node=at, out_link=out.name, dest_asns=dest))
        elif kind == "failed":
            policy.install(PbrRule(node=at, out_link=out.name, dest_asns=dest))
            to_fail.append(out.name)
        elif kind == "loop":
            # both ends of the out-link send the traffic back across it
            policy.install(PbrRule(node=at, out_link=out.name, dest_asns=dest))
            policy.install(PbrRule(node=out.other(at), out_link=out.name,
                                   dest_asns=dest))
        else:  # "detached"
            others = sorted(name for name, link in topo.links.items()
                            if at not in (link.u, link.v))
            policy.install(PbrRule(node=at, out_link=others[which % len(others)],
                                   dest_asns=dest))
    return to_fail


def _add_hosts(world, picks) -> Tuple[List[str], List[str]]:
    """Single-homed hosts; returns their names and the uplinks to fail.

    A ``live`` or ``failed`` host hangs off the ``pick``-th router, in
    its AS.  A ``foreign`` host sits in the AS of one end of the
    ``pick``-th inter-AS link and hangs off its other end, so its one
    uplink crosses that AS boundary and the host is a border.
    """
    topo = world.topology
    routers = sorted(n.name for n in topo.nodes.values() if not n.is_host)
    crossings = sorted(name for name, link in topo.links.items()
                       if topo.node(link.u).asn != topo.node(link.v).asn)
    hosts, to_fail = [], []
    for i, (kind, pick) in enumerate(picks):
        if kind == "foreign":
            link = topo.links[crossings[pick % len(crossings)]]
            asn, uplink = topo.node(link.u).asn, link.v
        else:
            uplink = routers[pick % len(routers)]
            asn = topo.node(uplink).asn
        name = f"extra-{i}"
        topo.add_node(Node(name, NodeKind.HOST, asn, f"192.0.2.{i + 1}"))
        topo.add_link(Link(name, uplink, capacity_bps=1e9, delay_s=1e-3))
        hosts.append(name)
        if kind == "failed":
            to_fail.append(topo.link_between(name, uplink).name)
    return hosts, to_fail


_KINDS = st.sampled_from(["source", "source", "destination", "failed",
                          "loop", "detached"])

#: rules: (kind, route pick, interior hop pick, out-link pick, prefix length)
_RULES = st.lists(st.tuples(_KINDS, st.integers(0, 10_000), st.integers(0, 10),
                            st.integers(0, 10), st.sampled_from([32, 24, 16])),
                  min_size=1, max_size=4)

#: added hosts: (uplink kind, router or inter-AS link pick)
_HOSTS = st.lists(st.tuples(st.sampled_from(["live", "failed", "foreign"]),
                            st.integers(0, 10_000)), max_size=3)

#: one step: (fail?, pick) — fail the pick-th link, or restore the
#: pick-th currently failed one
_STEPS = st.lists(st.tuples(st.booleans(), st.integers(0, 10_000)), max_size=6)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), rules=_RULES, hosts=_HOSTS, steps=_STEPS)
def test_memoised_walk_matches_unmemoised_under_pbr_and_failures(seed, rules,
                                                                 hosts, steps):
    spec = preset_spec("smoke", seed=seed)
    compiled = compile_spec(spec, routes=True)
    world = materialize(compiled)
    pairs = _route_pairs(generate(spec))
    routes = [nodes for nodes in compiled.route_name_paths() if len(nodes) > 2]
    _assert_equivalent(world, pairs)  # fills the memo before any change
    added, to_fail = _add_hosts(world, hosts)
    sources = sorted({src for src, _ in pairs})
    dests = sorted({dst for _, dst in pairs})
    pairs += [(h, d) for h in added for d in dests]
    pairs += [(s, h) for h in added for s in sources]
    to_fail += _install_rules(world, routes, rules)
    world.router.invalidate()  # the topology and policy changed under it
    _assert_equivalent(world, pairs)
    for name in to_fail:
        if not world.topology.links[name].failed:
            world.fail_link(name)
    _assert_equivalent(world, pairs)
    names = sorted(world.topology.links)
    for fail, pick in steps:
        if fail:
            world.fail_link(names[pick % len(names)])
        else:
            down = [n for n in names if world.topology.links[n].failed]
            if not down:
                continue
            world.restore_link(down[pick % len(down)])
        _assert_equivalent(world, pairs)
