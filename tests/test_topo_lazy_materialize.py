"""Lazy world materialisation equals the eager build it replaced.

``materialize`` hands the router the precompiled hop lists unfinalised
and the engine a jitter mapping that draws each link's factor on first
read.  The oracles here pin that the lazy world is the eager one:

* every precompiled route, resolved lazily in any order, equals the
  eager ``_finalize`` of the same hop list, field for field;
* a pending route is never served stale after a link fails or the IGP
  costs change;
* every direction's capacity equals the eager per-link draw, whatever
  the order directions are read in;
* the ``tolist`` record conversion equals the per-element one.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.errors import RoutingError, TopologyError
from repro.net import (
    ASGraph,
    AutonomousSystem,
    Link,
    Node,
    NodeKind,
    Router,
    Topology,
)
from repro.sim import RngRegistry
from repro.testbed import case_study_topo_spec
from repro.topo import (
    CompiledTopology,
    compile_graph,
    compile_spec,
    generate,
    materialize,
    preset_spec,
)
from repro.topo.spec import (
    AsRec,
    LinkRec,
    NodeRec,
    PbrRec,
    ProviderRec,
    SiteRec,
    TopoGraph,
)
from repro.units import mbps, ms

pytestmark = pytest.mark.topo

WORLDS = [("smoke", 3), ("metro", 7), ("metro", 11), ("internet", 7)]


class EagerRouter(Router):
    """The router before lazy preload: every path finalised at load."""

    def preload(self, node_paths):
        n = 0
        for nodes in node_paths:
            path = self._finalize(list(nodes))
            self._path_cache[(path.src, path.dst)] = path
            n += 1
        return n


def fields(path):
    """Every field of a resolved path, floats compared as ``repr``."""
    return tuple(repr(getattr(path, f.name)) for f in dataclasses.fields(path))


def outcome(router, src, dst):
    """The path's fields, or the error type resolution raises."""
    try:
        return fields(router.resolve(src, dst))
    except (RoutingError, TopologyError) as exc:
        return type(exc)


def eager_router(world, compiled):
    """An eager router over *world*'s live topology, preloaded like it."""
    router = EagerRouter(world.topology, world.as_graph, world.policy)
    router.preload(compiled.route_name_paths())
    return router


class TestRoutesOnFirstUse:
    @pytest.mark.parametrize("preset,seed", WORLDS,
                             ids=[f"{p}-{s}" for p, s in WORLDS])
    def test_every_route_equals_the_eager_finalize(self, preset, seed):
        compiled = compile_spec(preset_spec(preset, seed=seed), routes=True)
        paths = compiled.route_name_paths()
        eager = materialize(compiled, seed=seed).router
        expected = {(p[0], p[-1]): fields(eager._finalize(list(p)))
                    for p in paths}

        world = materialize(compiled, seed=seed)
        assert world.router._path_cache == {}  # nothing finalised at load
        pairs = list(expected)
        random.Random(seed).shuffle(pairs)
        for src, dst in pairs:
            assert fields(world.router.resolve(src, dst)) == expected[src, dst]

    def test_preload_replaces_a_cached_path(self):
        world = materialize(compile_spec(preset_spec("smoke", seed=3)), seed=3)
        src, dst = "c0000-h", "gdrive-pop0-fe"
        first = world.router.resolve(src, dst)
        world.router.preload([list(first.nodes)])
        again = world.router.resolve(src, dst)
        assert again is not first and fields(again) == fields(first)


    def test_a_corrupt_route_array_fails_at_materialize(self):
        compiled = compile_spec(preset_spec("smoke", seed=3))
        arrays = dict(compiled.arrays)
        arrays["route_indptr"] = np.array([0, 1], dtype=np.int64)
        arrays["route_node"] = compiled.arrays["route_node"][:1]
        with pytest.raises(RoutingError, match="at least two hops"):
            materialize(CompiledTopology(arrays, dict(compiled.meta)), seed=3)


class TestPendingRoutesAndLinkChanges:
    def test_a_failed_link_is_never_served_stale(self):
        """Fail each link of the smoke world before any resolve: every
        route then resolves as the eager router resolves it."""
        compiled = compile_spec(preset_spec("smoke", seed=3), routes=True)
        precompiled = {(p[0], p[-1]): tuple(p) for p in compiled.route_name_paths()}
        moved = 0
        for link_name in materialize(compiled, seed=3).topology.links:
            world = materialize(compiled, seed=3)
            eager = eager_router(world, compiled)
            world.fail_link(link_name)
            eager.invalidate()
            for src, dst in precompiled:
                got = outcome(world.router, src, dst)
                assert got == outcome(eager, src, dst), (link_name, src, dst)
                if isinstance(got, tuple):
                    nodes = world.router.resolve(src, dst).nodes
                    moved += nodes != precompiled[src, dst]
        assert moved > 0  # some failure really moves a precompiled route

    def test_an_igp_cost_change_is_never_served_stale(self):
        r"""Raising bz--hostB's IGP cost moves the stored route through m::

            hostA[100] -- gwA[100] -- bz[200] -- hostB[200]
                                        \          /
                                         m[200] --+
        """
        topo = Topology()
        for name, kind, asn, addr in [
            ("hostA", NodeKind.HOST, 100, "10.1.0.10"),
            ("gwA", NodeKind.ROUTER, 100, "10.1.0.1"),
            ("bz", NodeKind.ROUTER, 200, "10.2.0.1"),
            ("m", NodeKind.ROUTER, 200, "10.2.0.3"),
            ("hostB", NodeKind.HOST, 200, "10.2.0.10"),
        ]:
            topo.add_node(Node(name, kind, asn, addr))
        for u, v in [("hostA", "gwA"), ("gwA", "bz"), ("bz", "hostB"),
                     ("bz", "m"), ("m", "hostB")]:
            topo.add_link(Link(u, v, capacity_bps=mbps(100), delay_s=ms(1)))
        asg = ASGraph()
        asg.add_as(AutonomousSystem(100, "campus"))
        asg.add_as(AutonomousSystem(200, "isp"))
        asg.add_customer(200, 100)
        stored = ["hostA", "gwA", "bz", "hostB"]
        lazy, eager = Router(topo, asg), EagerRouter(topo, asg)
        lazy.preload([stored])
        eager.preload([stored])

        topo.link("bz--hostB").igp_cost = 10.0
        lazy.invalidate()
        eager.invalidate()
        path = lazy.resolve("hostA", "hostB")
        assert path.nodes == ("hostA", "gwA", "bz", "m", "hostB")
        assert fields(path) == fields(eager.resolve("hostA", "hostB"))


class TestJitterOnFirstUse:
    @pytest.mark.parametrize("preset,seed", [("smoke", 3), ("metro", 7)])
    def test_capacity_of_equals_the_eager_draw_in_any_order(self, preset, seed):
        compiled = compile_spec(preset_spec(preset, seed=seed), routes=True)
        rng = RngRegistry(seed)
        eager = {link.name: rng.lognormal_factor(f"capjitter.{link.name}",
                                                 link.jitter_sigma)
                 for link in compiled.to_graph().links}
        for order in ("forward", "shuffled"):
            world = materialize(compiled, seed=seed)
            directions = [link.direction_from(end)
                          for link in world.topology.links.values()
                          for end in (link.u, link.v)]
            if order == "shuffled":
                random.Random(seed).shuffle(directions)
            for d in directions:
                link = world.topology.link(d.link_name)
                expected = link.effective_capacity_bps(d.src) * eager[link.name]
                assert repr(world.engine.capacity_of(d)) == repr(expected)

    def test_a_link_added_after_materialize_is_unjittered(self):
        world = materialize(compile_spec(preset_spec("smoke", seed=3)), seed=3)
        topo = world.topology
        topo.add_node(Node("late-host", NodeKind.HOST, topo.node("c0000-h").asn,
                           "10.250.0.1"))
        link = topo.add_link(Link("c0000-h", "late-host", capacity_bps=mbps(100),
                                  delay_s=ms(1)))
        assert link.name not in world.engine.capacity_scale
        assert world.engine.capacity_of(link.direction_from("c0000-h")) == mbps(100)


# -- records ---------------------------------------------------------------


def per_element_graph(compiled):
    """The per-element array conversion ``to_graph`` used before ``tolist``."""
    a = compiled.arrays
    site_names = [str(s) for s in a["site_name"]]
    node_names = [str(s) for s in a["node_name"]]
    sites = tuple(
        SiteRec(site_names[i], str(a["site_kind"][i]),
                float(a["site_lat"][i]), float(a["site_lon"][i]),
                city=str(a["site_city"][i]), description=str(a["site_desc"][i]),
                planetlab=bool(a["site_planetlab"][i]))
        for i in range(compiled.n_sites))

    def node(i):
        fw = float(a["node_fw_bps"][i])
        site_idx = int(a["node_site"][i])
        return NodeRec(
            node_names[i], str(a["node_kind"][i]), int(a["node_asn"][i]),
            str(a["node_addr"][i]), hostname=str(a["node_hostname"][i]),
            site=site_names[site_idx] if site_idx >= 0 else "",
            responds=bool(a["node_responds"][i]),
            firewall_per_flow_bps=None if np.isnan(fw) else fw)

    nodes = tuple(node(i) for i in range(compiled.n_nodes))
    policers_by_link = {}
    for j in range(a["policer_link"].shape[0]):
        policers_by_link.setdefault(int(a["policer_link"][j]), []).append(
            (node_names[int(a["policer_node"][j])], float(a["policer_bps"][j])))
    links = tuple(
        LinkRec(node_names[int(a["link_u"][i])], node_names[int(a["link_v"][i])],
                capacity_bps=float(a["link_cap_bps"][i]),
                delay_s=float(a["link_delay_s"][i]),
                loss=float(a["link_loss"][i]), igp_cost=float(a["link_igp"][i]),
                policers=tuple(policers_by_link.get(i, ())),
                jitter_sigma=float(a["link_jitter"][i]))
        for i in range(compiled.n_links))
    ases = tuple(
        AsRec(int(a["as_number"][i]), str(a["as_name"][i]), str(a["as_tier"][i]))
        for i in range(a["as_number"].shape[0]))
    deny_indptr = a["deny_indptr"]
    export_deny = tuple(
        (int(a["deny_announcer"][i]), int(a["deny_neighbor"][i]),
         tuple(int(x) for x in a["deny_dest"][deny_indptr[i]:deny_indptr[i + 1]]))
        for i in range(a["deny_announcer"].shape[0]))
    pbr_indptr = a["pbr_indptr"]
    link_names = [f"{node_names[int(a['link_u'][i])]}--"
                  f"{node_names[int(a['link_v'][i])]}"
                  for i in range(compiled.n_links)]
    pbr_rules = tuple(
        PbrRec(node_names[int(a["pbr_node"][i])], link_names[int(a["pbr_link"][i])],
               src_prefixes=tuple(
                   p for p in str(a["pbr_prefixes"][i]).split(";") if p),
               dest_asns=tuple(
                   int(x) for x in a["pbr_dest"][pbr_indptr[i]:pbr_indptr[i + 1]]),
               description=str(a["pbr_desc"][i]))
        for i in range(a["pbr_node"].shape[0]))
    prov_indptr = a["prov_indptr"]
    providers = tuple(
        ProviderRec(str(a["prov_name"][i]), str(a["prov_display"][i]),
                    str(a["prov_api"][i]), str(a["prov_auth"][i]),
                    frontends=tuple(
                        node_names[int(x)]
                        for x in a["prov_frontend"][prov_indptr[i]:prov_indptr[i + 1]]),
                    protocol=str(a["prov_proto"][i]))
        for i in range(a["prov_name"].shape[0]))
    return TopoGraph(
        sites=sites, ases=ases, nodes=nodes, links=links,
        customers=tuple((int(x), int(y)) for x, y in a["rel_customers"]),
        peerings=tuple((int(x), int(y)) for x, y in a["rel_peerings"]),
        export_deny=export_deny, pbr_rules=pbr_rules, providers=providers,
        hosts=tuple((site_names[int(s)], node_names[int(n)])
                    for s, n in zip(a["host_site"], a["host_node"])),
        dtn_sites=tuple(site_names[int(s)] for s in a["dtn_site"]),
        populations=tuple((site_names[int(s)], float(w))
                          for s, w in zip(a["pop_site"], a["pop_weight"])),
    )


def per_element_route_names(compiled):
    """The per-element ``route_name_paths`` used before ``tolist``."""
    names = compiled.arrays["node_name"]
    indptr = compiled.arrays["route_indptr"]
    flat = compiled.arrays["route_node"]
    return [[str(names[j]) for j in flat[indptr[i]:indptr[i + 1]]]
            for i in range(len(indptr) - 1)]


def _firewalled_case_study() -> CompiledTopology:
    """The case study (policers, PBR, export filters) plus a firewall cap."""
    graph = generate(case_study_topo_spec())
    nodes = tuple(dataclasses.replace(n, firewall_per_flow_bps=mbps(20))
                  if n.name == "ualberta-fw" else n for n in graph.nodes)
    return compile_graph(dataclasses.replace(graph, nodes=nodes),
                         "case-fw", "explicit", "0" * 64, "w000000")


class TestRecordConversion:
    @pytest.mark.parametrize("make", [
        pytest.param(lambda: compile_spec(preset_spec("smoke", seed=3)), id="smoke-3"),
        pytest.param(lambda: compile_spec(preset_spec("metro", seed=7)), id="metro-7"),
        pytest.param(lambda: compile_spec(case_study_topo_spec()), id="case-study"),
        pytest.param(_firewalled_case_study, id="case-study-firewall"),
    ])
    def test_to_graph_equals_the_per_element_conversion(self, make):
        compiled = make()
        graph, reference = compiled.to_graph(), per_element_graph(compiled)
        for field in dataclasses.fields(TopoGraph):
            got, want = getattr(graph, field.name), getattr(reference, field.name)
            assert len(got) == len(want), field.name
            for record, expected in zip(got, want):
                assert record == expected
                assert repr(record) == repr(expected)  # types and float bits
        assert per_element_route_names(compiled) == compiled.route_name_paths()

    def test_the_firewall_cap_survives_the_round_trip(self):
        fw = {n.name: n.firewall_per_flow_bps
              for n in _firewalled_case_study().to_graph().nodes}
        assert fw["ualberta-fw"] == mbps(20)
        assert fw["ubc-pl"] is None
