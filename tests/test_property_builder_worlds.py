"""Whole-stack fuzzing: random WorldBuilder scenarios resolve cleanly.

Hypothesis generates random economies (campuses, research/commodity
backbones, random peering and filters), and we assert the stack behaves:
every reachable host pair resolves to a loop-free valley-free path, every
unreachable pair raises :class:`RoutingError` (never crashes or loops),
and a transfer over any resolvable path completes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError
from repro.geo.sites import SITES, Site, SiteKind, register_site
from repro.geo.coords import GeoPoint
from repro.testbed import WorldBuilder
from repro.units import mb, mbps, ms

# one shared pool of synthetic sites (registered once); campus i sits at
# fuzz site (i + 2) % 8
for i in range(8):
    register_site(Site(f"fuzz-site-{i}", SiteKind.CLIENT,
                       GeoPoint(30.0 + i * 2, -120.0 + i * 5), f"Fuzz City {i}"))
for i in range(4):
    j = (i + 2) % 8
    register_site(Site(f"campus{i}", SiteKind.CLIENT,
                       GeoPoint(30.0 + j * 2, -120.0 + j * 5), f"Fuzz City {j}"))


@st.composite
def scenarios(draw):
    """A random but structurally valid multi-campus world description."""
    n_campuses = draw(st.integers(2, 4))
    n_backbones = draw(st.integers(1, 2))
    # campus i attaches to backbone (i % n_backbones) as customer, and
    # possibly to a second backbone too
    extra_homes = [draw(st.booleans()) for _ in range(n_campuses)]
    backbone_peerings = draw(st.booleans())
    provider_backbone = draw(st.integers(0, n_backbones - 1))
    filter_campus = draw(st.one_of(st.none(), st.integers(0, n_campuses - 1)))
    return (n_campuses, n_backbones, extra_homes, backbone_peerings,
            provider_backbone, filter_campus)


def build_world(desc, seed=0):
    (n_campuses, n_backbones, extra_homes, backbone_peerings,
     provider_backbone, filter_campus) = desc
    b = WorldBuilder(seed=seed)
    backbones = [b.autonomous_system(f"bb{i}") for i in range(n_backbones)]
    cloud = b.autonomous_system("cloud")
    for i, bb in enumerate(backbones):
        b.router(f"bb{i}-core", bb, site=f"fuzz-site-{i}")
    for i in range(n_backbones - 1):
        if backbone_peerings:
            b.peer(backbones[i], backbones[i + 1])
            b.link(f"bb{i}-core", f"bb{i+1}-core", mbps(500), ms(5))
    campuses = []
    for i in range(n_campuses):
        asn = b.autonomous_system(f"campus{i}")
        home = backbones[i % n_backbones]
        b.customer(home, asn)
        b.campus(f"campus{i}", asn, access_bps=mbps(20 + 10 * i))
        b.link(f"campus{i}-border", f"bb{i % n_backbones}-core", mbps(1000), ms(2))
        if extra_homes[i] and n_backbones > 1:
            other = backbones[(i + 1) % n_backbones]
            b.customer(other, asn)
            b.link(f"campus{i}-border", f"bb{(i + 1) % n_backbones}-core",
                   mbps(1000), ms(3))
        campuses.append((f"campus{i}", asn))
    b.peer(backbones[provider_backbone], cloud)
    provider = b.provider("cloud", cloud, attach_to=f"bb{provider_backbone}-core",
                          protocol="gdrive", site="fuzz-site-7",
                          peering_bps=mbps(100))
    if filter_campus is not None:
        # the provider's backbone refuses to announce cloud routes to one campus
        _, victim_asn = campuses[filter_campus]
        bb = backbones[filter_campus % n_backbones]
        if bb == backbones[provider_backbone]:
            b.export_deny(bb, victim_asn, [cloud])
    return b.build(), campuses


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_all_pairs_resolve_or_fail_cleanly(desc):
    world, campuses = build_world(desc)
    hosts = [world.host_of(name) for name, _ in campuses] + ["cloud-frontend"]
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            try:
                path = world.router.resolve(src, dst)
            except RoutingError:
                continue  # clean unreachability is acceptable
            assert path.nodes[0] == src and path.nodes[-1] == dst
            assert len(set(path.nodes)) == len(path.nodes)
            assert len(set(path.as_sequence)) == len(path.as_sequence)
            assert path.bottleneck_bps > 0


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_uploads_complete_where_routes_exist(desc):
    from repro.core import DirectRoute, PlanExecutor, TransferPlan
    from repro.transfer import FileSpec

    world, campuses = build_world(desc)
    executor = PlanExecutor(world)
    completed = 0
    for name, _ in campuses:
        try:
            world.router.resolve(world.host_of(name), "cloud-frontend")
        except RoutingError:
            continue
        result = executor.run(TransferPlan(
            name, "cloud", FileSpec(f"{name}.bin", int(mb(5))), DirectRoute()))
        assert result.total_s > 0
        completed += 1
    # Valley-freedom allows at most one peering edge, so exactly the
    # campuses homed under the provider's backbone (and not export-
    # filtered) are guaranteed reachability.
    (n_campuses, n_backbones, extra_homes, _, provider_backbone, filter_campus) = desc
    guaranteed = 0
    for i in range(n_campuses):
        homes = {i % n_backbones}
        if extra_homes[i] and n_backbones > 1:
            homes.add((i + 1) % n_backbones)
        if provider_backbone in homes and filter_campus != i:
            guaranteed += 1
    assert completed >= guaranteed
