"""AS graph relationships and valley-free BGP route computation."""

import pytest

from repro.errors import RoutingError, TopologyError
from repro.net import ASGraph, AutonomousSystem, BgpRouteComputer, Relationship, RouteType


def build(graph_spec):
    """graph_spec: (as_numbers, customer_edges, peer_edges)."""
    numbers, customers, peers = graph_spec
    g = ASGraph()
    for n in numbers:
        g.add_as(AutonomousSystem(n, f"as{n}"))
    for provider, customer in customers:
        g.add_customer(provider, customer)
    for a, b in peers:
        g.add_peering(a, b)
    return g


class TestASGraph:
    def test_relationship_symmetry(self):
        g = build(([1, 2], [(1, 2)], []))
        assert g.relationship(1, 2) is Relationship.CUSTOMER
        assert g.relationship(2, 1) is Relationship.PROVIDER

    def test_peering_symmetry(self):
        g = build(([1, 2], [], [(1, 2)]))
        assert g.relationship(1, 2) is Relationship.PEER
        assert g.relationship(2, 1) is Relationship.PEER

    def test_duplicate_relationship_rejected(self):
        g = build(([1, 2], [(1, 2)], []))
        with pytest.raises(TopologyError):
            g.add_peering(1, 2)

    def test_self_relationship_rejected(self):
        g = build(([1], [], []))
        with pytest.raises(TopologyError):
            g.add_customer(1, 1)

    def test_unknown_as_rejected(self):
        g = build(([1], [], []))
        with pytest.raises(TopologyError):
            g.add_customer(1, 99)

    def test_neighbor_queries(self):
        g = build(([1, 2, 3, 4], [(1, 2), (3, 1)], [(1, 4)]))
        assert g.customers(1) == [2]
        assert g.providers(1) == [3]
        assert g.peers(1) == [4]

    def test_customer_cone(self):
        g = build(([1, 2, 3, 4], [(1, 2), (2, 3)], [(1, 4)]))
        assert g.customer_cone(1) == {1, 2, 3}

    def test_validate_rejects_provider_cycle(self):
        g = build(([1, 2, 3], [(1, 2), (2, 3), (3, 1)], []))
        with pytest.raises(TopologyError, match="cycle"):
            g.validate()

    def test_validate_accepts_dag(self):
        g = build(([1, 2, 3], [(1, 2), (1, 3)], [(2, 3)]))
        g.validate()

    def test_duplicate_as_rejected(self):
        g = ASGraph()
        g.add_as(AutonomousSystem(1, "a"))
        with pytest.raises(TopologyError):
            g.add_as(AutonomousSystem(1, "b"))
        with pytest.raises(TopologyError):
            g.add_as(AutonomousSystem(2, "a"))


class TestBgpBasics:
    def test_direct_customer_route(self):
        # 1 is provider of 2; from 1 to 2 is a "down" route, from 2 to 1 "up"
        g = build(([1, 2], [(1, 2)], []))
        bgp = BgpRouteComputer(g)
        r12 = bgp.best_route(1, 2)
        assert r12.path == (1, 2) and r12.route_type is RouteType.CUSTOMER
        r21 = bgp.best_route(2, 1)
        assert r21.path == (2, 1) and r21.route_type is RouteType.PROVIDER

    def test_origin_route(self):
        g = build(([1], [], []))
        r = BgpRouteComputer(g).best_route(1, 1)
        assert r.route_type is RouteType.ORIGIN and r.length == 0

    def test_peer_route(self):
        g = build(([1, 2], [], [(1, 2)]))
        r = BgpRouteComputer(g).best_route(1, 2)
        assert r.path == (1, 2) and r.route_type is RouteType.PEER

    def test_valley_free_blocks_peer_peer(self):
        # 1 -peer- 2 -peer- 3: no transit across two peerings
        g = build(([1, 2, 3], [], [(1, 2), (2, 3)]))
        bgp = BgpRouteComputer(g)
        with pytest.raises(RoutingError):
            bgp.best_route(1, 3)

    def test_valley_free_blocks_customer_valley(self):
        # 1 and 3 are both providers of 2; 2 must not give transit between them
        g = build(([1, 2, 3], [(1, 2), (3, 2)], []))
        bgp = BgpRouteComputer(g)
        with pytest.raises(RoutingError):
            bgp.best_route(1, 3)

    def test_up_peer_down_is_allowed(self):
        # classic valley-free shape: 10 -up-> 1 -peer-> 2 -down-> 20
        g = build(([1, 2, 10, 20], [(1, 10), (2, 20)], [(1, 2)]))
        r = BgpRouteComputer(g).best_route(10, 20)
        assert r.path == (10, 1, 2, 20)

    def test_unknown_destination(self):
        g = build(([1], [], []))
        with pytest.raises(RoutingError):
            BgpRouteComputer(g).best_route(1, 42)


class TestBgpPreferences:
    def test_customer_route_preferred_over_shorter_peer(self):
        # dest 30; AS 1 can reach via customer chain (1->2->30, length 2)
        # or directly via a peering with 30 (length 1). Customer wins.
        g = build(([1, 2, 30], [(1, 2), (2, 30)], [(1, 30)]))
        r = BgpRouteComputer(g).best_route(1, 30)
        assert r.route_type is RouteType.CUSTOMER
        assert r.path == (1, 2, 30)

    def test_peer_preferred_over_provider(self):
        # dest 30 reachable from 1 via peer 2 (2's customer 30) or via
        # provider 3 (3's customer 30).
        g = build(([1, 2, 3, 30], [(2, 30), (3, 30), (3, 1)], [(1, 2)]))
        r = BgpRouteComputer(g).best_route(1, 30)
        assert r.route_type is RouteType.PEER
        assert r.path == (1, 2, 30)

    def test_shorter_path_wins_within_class(self):
        # two provider routes: via 2 (one extra hop through 40) vs via 3 (direct)
        g = build(([1, 2, 3, 30, 40], [(2, 1), (3, 1), (2, 40), (40, 30), (3, 30)], []))
        r = BgpRouteComputer(g).best_route(1, 30)
        assert r.path == (1, 3, 30)

    def test_lowest_next_as_tiebreak(self):
        # identical type+length via 2 or 3 -> choose next AS 2
        g = build(([1, 2, 3, 30], [(2, 1), (3, 1), (2, 30), (3, 30)], []))
        r = BgpRouteComputer(g).best_route(1, 30)
        assert r.next_as == 2

    def test_provider_chain_routes_down(self):
        # deep customer chain: 1 -> 2 -> 3; dest at top's peer
        g = build(([1, 2, 3, 9], [(1, 2), (2, 3)], [(1, 9)]))
        r = BgpRouteComputer(g).best_route(3, 9)
        assert r.path == (3, 2, 1, 9)
        assert r.route_type is RouteType.PROVIDER


class TestExportFilters:
    def test_filter_blocks_announcement_to_one_customer(self):
        # provider 1 peers with 9; customers 2 and 3.  Filter: 1 only
        # announces 9's routes to 2 (the "commercial peering subscriber").
        g = build(([1, 2, 3, 9], [(1, 2), (1, 3)], [(1, 9)]))
        g.set_export_deny(1, 3, {9})
        bgp = BgpRouteComputer(g)
        assert bgp.best_route(2, 9).path == (2, 1, 9)
        with pytest.raises(RoutingError):
            bgp.best_route(3, 9)

    def test_filtered_as_falls_back_to_other_provider(self):
        # 3 also buys from commodity transit 7 which peers with 9
        g = build(([1, 2, 3, 7, 9], [(1, 2), (1, 3), (7, 3)], [(1, 9), (7, 9)]))
        g.set_export_deny(1, 3, {9})
        r = BgpRouteComputer(g).best_route(3, 9)
        assert r.path == (3, 7, 9)

    def test_filter_on_upward_announcement(self):
        # 2 refuses to announce its customer 5 upward to provider 1
        g = build(([1, 2, 5], [(1, 2), (2, 5)], []))
        g.set_export_deny(2, 1, {5})
        bgp = BgpRouteComputer(g)
        with pytest.raises(RoutingError):
            bgp.best_route(1, 5)

    def test_filter_requires_neighbors(self):
        g = build(([1, 2, 3], [(1, 2)], []))
        with pytest.raises(TopologyError):
            g.set_export_deny(1, 3, set())


class TestTableAndCache:
    def test_table_covers_reachable_ases(self):
        g = build(([1, 2, 3], [(1, 2), (1, 3)], []))
        table = BgpRouteComputer(g).table_for(2)
        assert set(table) == {1, 2, 3}
        assert table[3].path == (3, 1, 2)

    def test_cache_and_invalidate(self):
        g = build(([1, 2], [(1, 2)], []))
        bgp = BgpRouteComputer(g)
        t1 = bgp.table_for(2)
        assert bgp.table_for(2) is t1
        bgp.invalidate()
        assert bgp.table_for(2) is not t1

    def test_dump_readable(self):
        g = build(([1, 2], [(1, 2)], []))
        out = BgpRouteComputer(g).dump(2)
        assert "AS1" in out and "customer" in out
