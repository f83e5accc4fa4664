"""The memoised next-hop walk ≡ the same walk without the memo.

``Router._next_hop`` memoises each decision of a router that holds no
PBR rule, per (router, destination AS) or, inside the destination's AS,
per (router, destination host); ``Router.invalidate`` drops the memo.
The oracle is the same router with ``_next_hop`` replaced by the
decision it wraps, built fresh for every comparison.  Both walk every
standard route pair of generated worlds that carry PBR rules of each
kind — source-prefix, destination-AS, one whose out-link is failed, a
pair that forms a loop, one naming a link not attached to its router —
while random link failures and restores go through ``World``, so the
memo the world's router kept across steps must match a cold decision.
"""

from __future__ import annotations

import ipaddress

from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError, TopologyError
from repro.net.policy import PbrRule
from repro.net.routing import Router
from repro.topo import compile_spec, generate, materialize, preset_spec
from repro.topo.materialize import _route_pairs


class UnmemoisedRouter(Router):
    """Every next hop decided afresh (the memo's reference)."""

    def _next_hop(self, cur, src, dst):
        return self._decide_next_hop(cur, src, dst)


def _outcome(router: Router, src: str, dst: str):
    """A hop list, or the error it raised (type and message)."""
    try:
        return router.walk(src, dst)
    except (RoutingError, TopologyError) as exc:
        return type(exc).__name__, str(exc)


def _assert_equivalent(world, pairs) -> None:
    reference = UnmemoisedRouter(world.topology, world.as_graph, world.policy)
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


_KINDS = st.sampled_from(["source", "source", "destination", "failed",
                          "loop", "detached"])

#: rules: (kind, route pick, interior hop pick, out-link pick, prefix length)
_RULES = st.lists(st.tuples(_KINDS, st.integers(0, 10_000), st.integers(0, 10),
                            st.integers(0, 10), st.sampled_from([32, 24, 16])),
                  min_size=1, max_size=4)

#: one step: (fail?, pick) — fail the pick-th link, or restore the
#: pick-th currently failed one
_STEPS = st.lists(st.tuples(st.booleans(), st.integers(0, 10_000)), max_size=6)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**16), rules=_RULES, steps=_STEPS)
def test_memoised_walk_matches_unmemoised_under_pbr_and_failures(seed, rules, steps):
    spec = preset_spec("smoke", seed=seed)
    compiled = compile_spec(spec, routes=True)
    world = materialize(compiled)
    pairs = _route_pairs(generate(spec))
    routes = [nodes for nodes in compiled.route_name_paths() if len(nodes) > 2]
    _assert_equivalent(world, pairs)  # fills the memo before any rule
    to_fail = _install_rules(world, routes, rules)
    world.router.invalidate()  # the policy changed under the router
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
