"""WorldBuilder: declarative scenario construction."""

import hashlib
import runpy
from pathlib import Path

import pytest

from repro.broker.fleet import run_fleet
from repro.core import DetourPlanner, DirectRoute, PlanExecutor, TransferPlan
from repro.errors import RoutingError, TopologyError
from repro.geo.sites import SITES, Site, SiteKind, register_site
from repro.geo.coords import GeoPoint
from repro.testbed import WorldBuilder
from repro.topo import TopoSpec
from repro.transfer import FileSpec
from repro.units import mb, mbps, ms


def tiny_world(seed=0):
    """Minimal two-campus world: client -> isp -> provider, plus a DTN."""
    b = WorldBuilder(seed=seed)
    b.add_site("campus-x", 40.0, -100.0, "Nowhere, KS")
    b.add_site("dtn-y", 45.0, -95.0, "Elsewhere, MN")
    b.add_site("dc-z", 38.0, -120.0, "DC Valley, CA")
    campus = b.autonomous_system("campus-x")
    dtn_as = b.autonomous_system("dtn-y")
    isp = b.autonomous_system("tiny-isp")
    cloud = b.autonomous_system("tiny-cloud")
    b.customer(isp, campus).customer(isp, dtn_as).peer(isp, cloud)
    b.router("isp-core", isp, site="dc-z")
    b.campus("campus-x", campus, access_bps=mbps(50))
    b.dtn("dtn-y", dtn_as, attach_to="isp-core", uplink_bps=mbps(200))
    b.link("campus-x-border", "isp-core", mbps(1000), ms(5))
    provider = b.provider("tiny-cloud", cloud, attach_to="isp-core",
                          protocol="gdrive", site="dc-z",
                          peering_bps=mbps(100))
    return b, provider


class TestRegisterSite:
    def test_idempotent_for_identical(self):
        s = Site("repeat-site", SiteKind.CLIENT, GeoPoint(1.0, 2.0), "X")
        assert register_site(s) is register_site(s) or register_site(s) == s
        assert "repeat-site" in SITES

    def test_conflicting_redefinition_rejected(self):
        register_site(Site("conflict-site", SiteKind.CLIENT, GeoPoint(1, 2), "X"))
        with pytest.raises(ValueError):
            register_site(Site("conflict-site", SiteKind.CLIENT, GeoPoint(3, 4), "Y"))


class TestBuilderConstruction:
    def test_build_produces_working_world(self):
        b, provider = tiny_world()
        world = b.build()
        result = PlanExecutor(world).run(TransferPlan(
            "campus-x", "tiny-cloud", FileSpec("f.bin", int(mb(10))), DirectRoute()))
        # 10 MB at 50 Mbit/s access = 1.6 s + overheads
        assert 1.5 < result.total_s < 4.0
        assert world.provider(provider).store.exists("f.bin")

    def test_dtn_registered_and_usable(self):
        b, _ = tiny_world(seed=1)
        world = b.build()
        planner = DetourPlanner(world, runs_per_route=1, discard_runs=0)
        routes = [r.describe() for r in planner.candidate_routes("campus-x")]
        assert routes == ["direct", "via dtn-y"]
        comparison = planner.compare("campus-x", "tiny-cloud", int(mb(10)))
        # no inefficiency here: direct wins (detour doubles the ISP hops)
        assert comparison.best.route.is_direct

    def test_auto_asn_assignment_in_private_range(self):
        b = WorldBuilder()
        asn = b.autonomous_system("auto")
        assert 64512 <= asn < 65536

    def test_explicit_asn(self):
        b = WorldBuilder()
        assert b.autonomous_system("explicit", number=65001) == 65001

    def test_addresses_unique_across_ases(self):
        b, _ = tiny_world(seed=2)
        world = b.build()
        addrs = [n.address for n in world.topology.nodes.values()]
        assert len(set(addrs)) == len(addrs)

    def test_campus_requires_known_site(self):
        b = WorldBuilder()
        asn = b.autonomous_system("x")
        with pytest.raises(TopologyError, match="add_site"):
            b.campus("ghost-site-key", asn, access_bps=mbps(10))

    def test_unregistered_site_rejected_by_spec(self):
        b = WorldBuilder()
        b.router("r", b.autonomous_system("x"), site="ghost-site-key")
        with pytest.raises(TopologyError, match="ghost-site-key"):
            b.spec()

    def test_router_in_undeclared_as_rejected(self):
        b = WorldBuilder()
        with pytest.raises(TopologyError, match="autonomous_system"):
            b.router("r", 99999)

    def test_build_only_once(self):
        b, _ = tiny_world(seed=3)
        b.build()
        with pytest.raises(TopologyError, match="only be called once"):
            b.build()

    def test_export_deny_blocks_the_route(self):
        b, provider = tiny_world(seed=3)
        asns = {a.name: a.asn for a in b.spec().graph.ases}
        b.export_deny(asns["tiny-isp"], asns["campus-x"], [asns["tiny-cloud"]])
        world = b.build()
        with pytest.raises(RoutingError):
            world.router.resolve(world.host_of("campus-x"), "tiny-cloud-frontend")
        world.router.resolve(world.host_of("dtn-y"), "tiny-cloud-frontend")

    def test_firewalled_router_is_middlebox(self):
        b = WorldBuilder()
        asn = b.autonomous_system("x")
        b.router("fw", asn, firewall_per_flow_bps=mbps(10))
        from repro.net.topology import NodeKind

        node = b.build().topology.node("fw")
        assert node.kind is NodeKind.MIDDLEBOX
        assert node.firewall_per_flow_bps == mbps(10)


class TestMultiPop:
    def test_add_pop_extends_frontends_and_geodns(self):
        b, provider = tiny_world(seed=4)
        cloud2_site = b.add_site("dc-east", 39.0, -77.0, "East DC")
        b.router("isp-east", b.autonomous_system("tiny-isp-east"), site="dc-east")
        # attach the new POP to the existing isp-core for simplicity
        cloud_asn = {a.name: a.asn for a in b.spec().graph.ases}["tiny-cloud"]
        b.add_pop(provider, cloud_asn, attach_to="isp-core", site="dc-east")
        world = b.build()
        assert len(world.provider(provider).frontend_nodes) == 2
        # client in Kansas: Cali DC (dc-z) is nearer than the east DC
        assert world.provider(provider).frontend_for(
            world.dns, world.host_of("campus-x")) == "tiny-cloud-frontend"

    def test_add_pop_foreign_provider_rejected(self):
        b, _ = tiny_world(seed=5)
        with pytest.raises(TopologyError, match="not created by this builder"):
            b.add_pop("other-cloud", 65000, attach_to="isp-core", site="dc-z")


class TestCrossTrafficAttachment:
    def test_cross_traffic_runs(self):
        b, _ = tiny_world(seed=7)
        b.cross_traffic("isp-core--tiny-cloud-frontend", "isp-core",
                        utilization=0.5, mean_flow_bytes=2e6)
        world = b.build()
        world.sim.run(until=120)
        assert world.sim.now >= 120  # background kept the sim alive


def _example(name):
    """*name* from the custom-scenario example."""
    path = Path(__file__).resolve().parent.parent / "examples" / "custom_scenario.py"
    return runpy.run_path(str(path))[name]


def _path_lines(world):
    """Every ordered host pair: its path and link metrics, or unreachable."""
    hosts = sorted(n.name for n in world.topology.nodes.values() if n.is_host)
    lines = []
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            try:
                p = world.router.resolve(src, dst)
            except (RoutingError, TopologyError):
                lines.append(f"{src} {dst} unreachable")
                continue
            lines.append(f"{src} {dst} {' '.join(p.nodes)} "
                         f"{p.rtt_s!r} {p.bottleneck_bps!r} {p.loss!r}")
    return lines


#: sha256 over the host-pair paths and detour comparisons of the example's
#: European world at two seeds, plus ``tiny_world`` upload times at four.
BUILDER_GOLDEN = "8e8b9d5427db8ac4a1b24f18f773979d33202b791c40d64a2a5c8f9003a83b16"


def test_builder_worlds_golden():
    build_europe = _example("build_europe")
    lines = []
    for seed in (0, 3):
        world = build_europe(seed)
        lines.extend(_path_lines(world))
        planner = DetourPlanner(world, runs_per_route=2, discard_runs=0)
        for client in ("eth", "imperial"):
            lines.append(planner.compare(client, "cloudx", int(mb(100))).render())
    for seed in range(4):
        b, _ = tiny_world(seed=seed)
        result = PlanExecutor(b.build()).run(TransferPlan(
            "campus-x", "tiny-cloud", FileSpec("g.bin", int(mb(10))), DirectRoute()))
        lines.append(repr(result.total_s))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == BUILDER_GOLDEN


class TestBuilderSpec:
    """Builder worlds are explicit specs: hashable, serializable, and usable
    wherever a ``topo=`` world is."""

    def test_identical_builders_hash_identically(self):
        europe_builder = _example("europe_builder")
        spec = europe_builder(0).spec()
        assert spec.source == "explicit"
        assert spec.content_hash() == europe_builder(0).spec().content_hash()
        assert spec.content_hash() != tiny_world()[0].spec().content_hash()

    def test_json_round_trip_keeps_the_hash(self):
        spec = _example("europe_builder")(0).spec()
        assert TopoSpec.from_json(spec.to_json()).content_hash() == spec.content_hash()

    def test_runs_as_a_fleet_world(self):
        spec = _example("europe_builder")(0).spec()
        result = run_fleet(0, ["eth", "imperial"], provider="cloudx",
                           n_uploads_per_site=3, mean_size_mb=10.0,
                           mode="direct", cross_traffic=False, topo=spec)
        assert len(result.records) == 6
        assert all(0 < r.duration_s < float("inf") for r in result.records)

    def test_cli_compiles_the_spec(self, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "europe.topo.json"
        spec_path.write_text(_example("europe_builder")(0).spec().to_json())
        assert main(["topo", "compile", str(spec_path),
                     "-o", str(tmp_path / "europe.npz")]) == 0
        assert "routes" in capsys.readouterr().out
