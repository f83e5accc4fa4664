"""End-to-end path resolution: BGP forwarding, PBR overrides, metrics."""

import pytest

from repro.core.world import World
from repro.errors import RoutingError
from repro.net import (
    ASGraph,
    AutonomousSystem,
    DnsResolver,
    Link,
    NetworkEngine,
    Node,
    NodeKind,
    PbrRule,
    PolicyTable,
    Router,
    TcpModel,
    Topology,
)
from repro.net import routing
from repro.sim import RngRegistry, Simulator, Tracer
from repro.units import mbps, ms


class TestResolution:
    def test_pbr_steers_hosta_via_exchange(self, mini_world):
        topo, asg, policy, router = mini_world
        path = router.resolve("hostA", "server")
        assert path.nodes == ("hostA", "gwA", "r1", "ix", "cloud-edge", "server")
        assert path.as_sequence == (100, 200, 400, 300)

    def test_default_bgp_path_for_hostb(self, mini_world):
        topo, asg, policy, router = mini_world
        path = router.resolve("hostB", "server")
        assert path.nodes == ("hostB", "gwB", "r2", "cloud-edge", "server")
        assert path.as_sequence == (500, 200, 300)

    def test_policed_bottleneck_reported(self, mini_world):
        _, _, _, router = mini_world
        via_ix = router.resolve("hostA", "server")
        assert via_ix.bottleneck_bps == pytest.approx(mbps(10))
        direct = router.resolve("hostB", "server")
        assert direct.bottleneck_bps == pytest.approx(mbps(50))

    def test_reverse_direction_not_policed(self, mini_world):
        # policer applies only to the ix->cloud-edge direction; the reverse
        # path (server->hostA) does not exist via ix anyway since PBR only
        # matches hostA-sourced traffic.
        _, _, _, router = mini_world
        back = router.resolve("server", "hostA")
        assert "ix" not in back.nodes
        assert back.bottleneck_bps == pytest.approx(mbps(50))

    def test_rtt_accumulates_link_delays(self, mini_world):
        topo, _, _, router = mini_world
        path = router.resolve("hostB", "server")
        one_way = topo.path_delay_s(list(path.nodes))
        assert path.rtt_s == pytest.approx(2 * (one_way + router.per_hop_latency_s * path.hop_count))

    def test_host_to_host_across_research_net(self, mini_world):
        _, _, _, router = mini_world
        path = router.resolve("hostA", "hostB")
        assert path.nodes == ("hostA", "gwA", "r1", "r2", "gwB", "hostB")

    def test_same_host_rejected(self, mini_world):
        _, _, _, router = mini_world
        with pytest.raises(RoutingError):
            router.resolve("hostA", "hostA")

    def test_cache_returns_same_object_until_invalidated(self, mini_world):
        _, _, _, router = mini_world
        p1 = router.resolve("hostA", "server")
        assert router.resolve("hostA", "server") is p1
        router.invalidate()
        p2 = router.resolve("hostA", "server")
        assert p2 is not p1 and p2.nodes == p1.nodes

    def test_preload_rejects_a_path_of_one_hop_at_load(self, mini_world):
        topo, asg, policy, _ = mini_world
        router = Router(topo, asg, policy)
        with pytest.raises(RoutingError, match="at least two hops"):
            router.preload([["hostB", "gwB", "r2", "cloud-edge", "server"],
                            ["hostB"]])

    def test_describe(self, mini_world):
        _, _, _, router = mini_world
        assert "hostA -> gwA" in router.resolve("hostA", "server").describe()

    def test_path_directions_alignment(self, mini_world):
        topo, _, _, router = mini_world
        path = router.resolve("hostB", "server")
        dirs = router.path_directions(path)
        assert [d.src for d in dirs] == list(path.nodes[:-1])
        assert [d.dst for d in dirs] == list(path.nodes[1:])


class TestPbrEdgeCases:
    def test_pbr_ignored_for_other_destinations(self, mini_world):
        # hostA -> hostB matches the src prefix but not dest AS 300
        _, _, _, router = mini_world
        path = router.resolve("hostA", "hostB")
        assert "ix" not in path.nodes

    def test_pbr_rule_on_detached_link_rejected(self, mini_world):
        topo, asg, policy, router = mini_world
        policy.install(PbrRule(node="gwB", out_link="r1--ix", dest_asns=frozenset({300})))
        router.invalidate()
        with pytest.raises(RoutingError, match="not attached"):
            router.resolve("hostB", "server")

    def test_pbr_loop_detected(self, mini_world):
        topo, asg, policy, router = mini_world
        # rule that bounces traffic back toward the source: r1 -> gwA for
        # cloud-bound traffic from hostB? craft a loop: gwA->r1 (normal),
        # then rule at r1 sends it back out the gwA link.
        policy.install(PbrRule(node="r2", out_link="r1--r2",
                               src_prefixes=frozenset({"10.5.0.0/24"}),
                               dest_asns=frozenset({300})))
        policy.install(PbrRule(node="r1", out_link="r1--r2",
                               src_prefixes=frozenset({"10.5.0.0/24"}),
                               dest_asns=frozenset({300})))
        router.invalidate()
        with pytest.raises(RoutingError, match="loop"):
            router.resolve("hostB", "server")

    def test_pbr_matching_logic(self):
        rule = PbrRule(node="r", out_link="l",
                       src_prefixes=frozenset({"10.1.0.0/24"}),
                       dest_asns=frozenset({300}))
        assert rule.matches("10.1.0.99", 300)
        assert not rule.matches("10.2.0.1", 300)
        assert not rule.matches("10.1.0.99", 301)

    def test_pbr_wildcards(self):
        any_rule = PbrRule(node="r", out_link="l")
        assert any_rule.matches("1.2.3.4", 42)

    def test_policy_table_first_match_wins(self):
        table = PolicyTable()
        r1 = PbrRule(node="r", out_link="l1", dest_asns=frozenset({300}))
        r2 = PbrRule(node="r", out_link="l2")
        table.install(r1)
        table.install(r2)
        assert table.match("r", "1.1.1.1", 300) is r1
        assert table.match("r", "1.1.1.1", 999) is r2
        assert table.match("other", "1.1.1.1", 300) is None
        assert len(table) == 2

    def test_policy_rule_str(self):
        rule = PbrRule(node="r1", out_link="r1--ix",
                       src_prefixes=frozenset({"10.1.0.0/24"}),
                       dest_asns=frozenset({300}))
        s = str(rule)
        assert "r1" in s and "10.1.0.0/24" in s and "AS300" in s


class TestRoutingFailures:
    def test_unreachable_destination(self, mini_world):
        topo, asg, policy, router = mini_world
        # forbid research net from announcing cloud routes to campus-a
        asg.set_export_deny(200, 100, {300})
        # also kill the PBR shortcut so BGP is consulted
        router2 = Router(topo, asg, PolicyTable())
        with pytest.raises(RoutingError):
            router2.resolve("hostA", "server")

    def test_bgp_adjacency_without_physical_link_is_ignored(self, mini_world):
        """An AS adjacency with no live inter-AS link carries no BGP
        session, so routing falls back to the physically-wired path."""
        topo, asg, policy, router = mini_world
        # campus-b "peers" cloud on paper, but no link exists
        asg.add_peering(500, 300)
        router2 = Router(topo, asg, PolicyTable())
        path = router2.resolve("hostB", "server")
        assert path.nodes == ("hostB", "gwB", "r2", "cloud-edge", "server")


def _egress_world() -> World:
    r"""Border gwA[100] has two equal-cost links into AS200, added in
    the order gwA--bz, gwA--ba (the reverse of name order)::

        hostA[100] -- gwA[100] --+-- bz[200] -- hostB[200]
                                 |    \         /
                                 |     m[200] -+
                                 +-- ba[200] --+
    """
    topo = Topology()
    for name, kind, asn, addr in [
        ("hostA", NodeKind.HOST, 100, "10.1.0.10"),
        ("gwA", NodeKind.ROUTER, 100, "10.1.0.1"),
        ("bz", NodeKind.ROUTER, 200, "10.2.0.1"),
        ("ba", NodeKind.ROUTER, 200, "10.2.0.2"),
        ("m", NodeKind.ROUTER, 200, "10.2.0.3"),
        ("hostB", NodeKind.HOST, 200, "10.2.0.10"),
    ]:
        topo.add_node(Node(name, kind, asn, addr))
    for u, v in [("hostA", "gwA"), ("gwA", "bz"), ("gwA", "ba"),
                 ("bz", "hostB"), ("ba", "hostB"), ("bz", "m"), ("m", "hostB")]:
        topo.add_link(Link(u, v, capacity_bps=mbps(100), delay_s=ms(1)))
    asg = ASGraph()
    asg.add_as(AutonomousSystem(100, "campus"))
    asg.add_as(AutonomousSystem(200, "isp"))
    asg.add_customer(200, 100)
    sim, tracer = Simulator(), Tracer(enabled=False)
    router = Router(topo, asg)
    return World(sim=sim, topology=topo, as_graph=asg, policy=router.policy,
                 router=router, dns=DnsResolver(topo),
                 engine=NetworkEngine(sim, topo, tracer=tracer), tcp=TcpModel(),
                 rng=RngRegistry(0), tracer=tracer)


class TestHotPotatoOrderAndInvalidation:
    def test_first_added_of_equal_egress_links_carries_the_path(self):
        world = _egress_world()
        assert [l.name for l in world.topology.inter_as_links(100, 200)] == [
            "gwA--bz", "gwA--ba"]
        assert world.router.resolve("hostA", "hostB").nodes == (
            "hostA", "gwA", "bz", "hostB")

    def test_failing_and_restoring_the_first_link_moves_the_path(self):
        world = _egress_world()
        world.router.resolve("hostA", "hostB")
        world.fail_link("gwA--bz")
        assert world.topology.inter_as_links(200, 100) == [world.topology.link("gwA--ba")]
        assert world.router.resolve("hostA", "hostB").nodes == (
            "hostA", "gwA", "ba", "hostB")
        world.restore_link("gwA--bz")
        assert world.router.resolve("hostA", "hostB").nodes == (
            "hostA", "gwA", "bz", "hostB")

    def test_intra_as_failure_reroutes_through_a_fresh_tree(self):
        world = _egress_world()
        world.router.resolve("hostA", "hostB")  # caches bz's tree
        world.fail_link("bz--hostB")
        assert world.router.resolve("hostA", "hostB").nodes == (
            "hostA", "gwA", "bz", "m", "hostB")
        world.restore_link("bz--hostB")
        assert world.router.resolve("hostA", "hostB").nodes == (
            "hostA", "gwA", "bz", "hostB")


def _chain_router(hops: int) -> Router:
    """Hosts n0 and n<hops> at the ends of a one-AS chain of routers."""
    topo = Topology()
    for i in range(hops + 1):
        kind = NodeKind.HOST if i in (0, hops) else NodeKind.ROUTER
        topo.add_node(Node(f"n{i}", kind, 100, f"10.0.{i // 200}.{i % 200 + 1}"))
    for i in range(hops):
        topo.add_link(Link(f"n{i}", f"n{i + 1}", capacity_bps=mbps(100),
                           delay_s=ms(1)))
    asg = ASGraph()
    asg.add_as(AutonomousSystem(100, "chain"))
    return Router(topo, asg)


class TestHopLimit:
    def test_a_path_of_exactly_the_limit_resolves(self):
        router = _chain_router(routing._MAX_HOPS)
        assert router.resolve("n0", "n64").hop_count == 64 == routing._MAX_HOPS

    def test_one_hop_over_the_limit_raises(self):
        router = _chain_router(routing._MAX_HOPS + 1)
        with pytest.raises(RoutingError, match=r"^path n0->n65 exceeds 64 hops$"):
            router.walk("n0", "n65")

    def test_a_remembered_suffix_is_joined_only_within_the_limit(self):
        router = _chain_router(routing._MAX_HOPS + 1)
        assert len(router.walk("n1", "n65")) == 65  # remembers the suffixes from n2
        with pytest.raises(RoutingError, match=r"^path n0->n65 exceeds 64 hops$"):
            router.walk("n0", "n65")
        assert router.suffixes_joined == 0
        assert router.walk("n2", "n65") == [f"n{i}" for i in range(2, 66)]
        assert router.suffixes_joined == 1
