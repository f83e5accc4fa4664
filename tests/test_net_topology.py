"""Topology and addressing: construction, lookups, intra-AS paths."""

import pytest

from repro.errors import AddressError, TopologyError
from repro.net import Link, Node, NodeKind, PrefixAllocator, Topology
from repro.net.address import parse_address, parse_prefix
from repro.units import mbps, ms


def _node(name, asn=1, addr=None, kind=NodeKind.ROUTER, **kw):
    return Node(name=name, kind=kind, asn=asn, address=addr or f"10.0.{asn}.{abs(hash(name)) % 250 + 1}", **kw)


def chain_topology(n=4, asn=1):
    """a0 - a1 - ... - a(n-1), all in one AS."""
    topo = Topology()
    for i in range(n):
        topo.add_node(Node(f"a{i}", NodeKind.ROUTER, asn, f"10.0.0.{i + 1}"))
    for i in range(n - 1):
        topo.add_link(Link(f"a{i}", f"a{i+1}", capacity_bps=mbps(100), delay_s=ms(1)))
    return topo


class TestAddress:
    def test_parse_address_ok(self):
        assert str(parse_address("142.103.78.250")) == "142.103.78.250"

    def test_parse_address_bad(self):
        with pytest.raises(AddressError):
            parse_address("256.1.1.1")

    def test_parse_prefix_bad_hostbits(self):
        with pytest.raises(AddressError):
            parse_prefix("10.0.0.1/8")

    def test_allocator_subnets_disjoint(self):
        alloc = PrefixAllocator("192.168.0.0/16")
        nets = [alloc.subnet(24) for _ in range(5)]
        for i, a in enumerate(nets):
            for b in nets[i + 1:]:
                assert not a.overlaps(b)

    def test_allocator_hosts_unique(self):
        alloc = PrefixAllocator("172.16.0.0/12")
        hosts = [alloc.host() for _ in range(300)]  # spills into a second /24
        assert len(set(hosts)) == 300

    def test_allocator_mixed_subnets_and_hosts_disjoint(self):
        alloc = PrefixAllocator("10.0.0.0/8")
        net = alloc.subnet(16)
        host = parse_address(alloc.host())
        assert host not in net

    def test_allocator_rejects_oversized_request(self):
        with pytest.raises(AddressError):
            PrefixAllocator("10.0.0.0/16").subnet(8)

    def test_allocator_exhaustion(self):
        alloc = PrefixAllocator("10.0.0.0/24")
        with pytest.raises(AddressError):
            for _ in range(10):
                alloc.subnet(26)


class TestNodesAndLinks:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(_node("x", addr="10.0.0.1"))
        with pytest.raises(TopologyError, match="duplicate node"):
            topo.add_node(_node("x", addr="10.0.0.2"))

    def test_duplicate_address_rejected(self):
        topo = Topology()
        topo.add_node(_node("x", addr="10.0.0.1"))
        with pytest.raises(TopologyError, match="address"):
            topo.add_node(_node("y", addr="10.0.0.1"))

    def test_invalid_node_address_rejected(self):
        with pytest.raises(AddressError):
            Node("x", NodeKind.HOST, 1, "999.0.0.1")

    def test_hostname_defaults_to_name(self):
        assert _node("r1", addr="10.0.0.9").hostname == "r1"

    def test_link_validation(self):
        with pytest.raises(TopologyError):
            Link("a", "b", capacity_bps=0, delay_s=0.001)
        with pytest.raises(TopologyError):
            Link("a", "b", capacity_bps=1e6, delay_s=-1)
        with pytest.raises(TopologyError):
            Link("a", "b", capacity_bps=1e6, delay_s=0, loss=1.0)

    @pytest.mark.parametrize("cost", [-1.0, -1e-300, float("inf"), float("nan")])
    def test_link_rejects_negative_or_non_finite_igp_cost(self, cost):
        with pytest.raises(TopologyError, match="IGP cost"):
            Link("a", "b", capacity_bps=1e6, delay_s=0, igp_cost=cost)

    def test_link_accepts_zero_igp_cost(self):
        assert Link("a", "b", capacity_bps=1e6, delay_s=0, igp_cost=0.0).igp_cost == 0.0

    def test_link_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node(_node("a", addr="10.0.0.1"))
        with pytest.raises(TopologyError, match="unknown node"):
            topo.add_link(Link("a", "ghost", capacity_bps=1e6, delay_s=0.001))

    def test_self_loop_rejected(self):
        topo = Topology()
        topo.add_node(_node("a", addr="10.0.0.1"))
        with pytest.raises(TopologyError, match="self-loop"):
            topo.add_link(Link("a", "a", capacity_bps=1e6, delay_s=0.001))

    def test_parallel_link_rejected(self):
        topo = chain_topology(2)
        with pytest.raises(TopologyError, match="parallel"):
            topo.add_link(Link("a0", "a1", capacity_bps=1e6, delay_s=0.001, name="dup"))

    def test_link_other_and_direction(self):
        link = Link("u", "v", capacity_bps=1e6, delay_s=0.001)
        assert link.other("u") == "v" and link.other("v") == "u"
        with pytest.raises(TopologyError):
            link.other("w")
        d = link.direction_from("v")
        assert (d.src, d.dst) == ("v", "u")

    def test_policer_caps_one_direction_only(self):
        link = Link("u", "v", capacity_bps=mbps(100), delay_s=0.001, policer_bps={"u": mbps(10)})
        assert link.effective_capacity_bps("u") == mbps(10)
        assert link.effective_capacity_bps("v") == mbps(100)

    def test_policer_bad_endpoint_rejected(self):
        with pytest.raises(TopologyError):
            Link("u", "v", capacity_bps=1e6, delay_s=0, policer_bps={"w": 1e5})


class TestLookupsAndPaths:
    def test_node_by_address(self):
        topo = chain_topology(3)
        assert topo.node_by_address("10.0.0.2").name == "a1"
        with pytest.raises(TopologyError):
            topo.node_by_address("9.9.9.9")

    def test_link_between(self):
        topo = chain_topology(3)
        assert topo.link_between("a0", "a1").name == "a0--a1"
        with pytest.raises(TopologyError):
            topo.link_between("a0", "a2")

    def test_neighbors(self):
        topo = chain_topology(3)
        assert sorted(topo.neighbors("a1")) == ["a0", "a2"]

    def test_intra_as_path_follows_chain(self):
        topo = chain_topology(5)
        assert topo.intra_as_path("a0", "a4") == ["a0", "a1", "a2", "a3", "a4"]

    def test_intra_as_path_identity(self):
        topo = chain_topology(2)
        assert topo.intra_as_path("a0", "a0") == ["a0"]

    def test_intra_as_path_prefers_low_igp_cost(self):
        topo = chain_topology(3)
        # shortcut a0--a2 but with high IGP cost: path should stay on chain
        topo.add_link(Link("a0", "a2", capacity_bps=mbps(100), delay_s=ms(1), igp_cost=10))
        assert topo.intra_as_path("a0", "a2") == ["a0", "a1", "a2"]

    def test_intra_as_tree_sums_costs_and_delays_from_the_root(self):
        topo = chain_topology(3)
        topo.add_link(Link("a0", "a2", capacity_bps=mbps(100), delay_s=ms(1), igp_cost=10))
        topo.add_node(Node("b0", NodeKind.ROUTER, 2, "10.0.1.1"))
        topo.add_link(Link("a2", "b0", capacity_bps=mbps(10), delay_s=ms(1)))
        dist, prev = topo.intra_as_tree("a0")
        assert dist == {"a0": (0.0, 0.0), "a1": (1.0, ms(1)), "a2": (2.0, ms(1) + ms(1))}
        assert prev == {"a1": "a0", "a2": "a1"}
        assert topo.intra_as_path("a0", "a2", (dist, prev)) == ["a0", "a1", "a2"]

    def test_intra_as_path_rejects_cross_as(self):
        topo = chain_topology(2)
        topo.add_node(Node("b0", NodeKind.ROUTER, 2, "10.0.1.1"))
        topo.add_link(Link("a1", "b0", capacity_bps=mbps(10), delay_s=ms(1)))
        with pytest.raises(TopologyError, match="across ASes"):
            topo.intra_as_path("a0", "b0")

    def test_intra_as_path_ignores_foreign_detours(self):
        # a0 - b - a1 (b in другом AS) plus a0 - a1 long way: must not use b
        topo = Topology()
        for name, asn, addr in [("a0", 1, "10.0.0.1"), ("a1", 1, "10.0.0.2"), ("b", 2, "10.0.1.1"), ("m", 1, "10.0.0.3")]:
            topo.add_node(Node(name, NodeKind.ROUTER, asn, addr))
        topo.add_link(Link("a0", "b", capacity_bps=1e6, delay_s=ms(1)))
        topo.add_link(Link("b", "a1", capacity_bps=1e6, delay_s=ms(1)))
        topo.add_link(Link("a0", "m", capacity_bps=1e6, delay_s=ms(5)))
        topo.add_link(Link("m", "a1", capacity_bps=1e6, delay_s=ms(5)))
        assert topo.intra_as_path("a0", "a1") == ["a0", "m", "a1"]

    def test_no_intra_path_raises(self):
        topo = Topology()
        topo.add_node(Node("a", NodeKind.ROUTER, 1, "10.0.0.1"))
        topo.add_node(Node("b", NodeKind.ROUTER, 1, "10.0.0.2"))
        with pytest.raises(TopologyError, match="no intra-AS path"):
            topo.intra_as_path("a", "b")

    def test_path_metrics(self):
        topo = Topology()
        topo.add_node(Node("a", NodeKind.HOST, 1, "10.0.0.1"))
        topo.add_node(Node("b", NodeKind.ROUTER, 1, "10.0.0.2"))
        topo.add_node(Node("c", NodeKind.HOST, 1, "10.0.0.3"))
        topo.add_link(Link("a", "b", capacity_bps=mbps(10), delay_s=ms(2), loss=0.01))
        topo.add_link(Link("b", "c", capacity_bps=mbps(50), delay_s=ms(3), loss=0.02))
        path = ["a", "b", "c"]
        assert topo.path_delay_s(path) == pytest.approx(0.005)
        assert topo.path_loss(path) == pytest.approx(1 - 0.99 * 0.98)
        dirs = topo.path_directions(path)
        assert [str(d) for d in dirs] == ["a->b", "b->c"]

    def test_inter_as_links(self):
        topo = chain_topology(2, asn=1)
        topo.add_node(Node("b0", NodeKind.ROUTER, 2, "10.0.1.1"))
        topo.add_link(Link("a1", "b0", capacity_bps=mbps(10), delay_s=ms(1)))
        links = topo.inter_as_links(1, 2)
        assert len(links) == 1 and links[0].name == "a1--b0"
        assert topo.inter_as_links(1, 3) == []

    def test_validate_rejects_orphan_host(self):
        topo = Topology()
        topo.add_node(Node("h", NodeKind.HOST, 1, "10.0.0.1"))
        with pytest.raises(TopologyError, match="no access link"):
            topo.validate()

    def test_hosts_and_nodes_in_as(self):
        topo = chain_topology(3)
        topo.add_node(Node("h", NodeKind.HOST, 2, "10.0.9.1"))
        assert [n.name for n in topo.hosts()] == ["h"]
        assert len(topo.nodes_in_as(1)) == 3
