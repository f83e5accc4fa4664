#!/usr/bin/env python
"""Build your own scenario with WorldBuilder: a European case study.

Two university clients upload 100 MB to "CloudX", whose POPs sit in
Frankfurt and London behind a commodity ISP whose CloudX peering is
congested (8 Mbit/s):

* ETH Zurich is dual-homed: commodity ISP + the GEANT research network.
  GEANT carries CloudX routes only for its commercial-service subscribers
  (here: the University of Amsterdam DTN), so ETH's *direct* uploads
  crawl through the ISP — but a detour via the Amsterdam DTN rides
  GEANT's fat peering.  The paper's Purdue story, on another continent.
* Imperial (London) only has the commodity ISP.  Its path to the DTN is
  as bad as its path to CloudX, so — like UCLA in the paper — no detour
  can save it.

Run:  python examples/custom_scenario.py
"""

from repro.core import DetourPlanner
from repro.testbed import WorldBuilder
from repro.units import mb, mbps, ms


def europe_builder(seed: int = 0) -> WorldBuilder:
    b = WorldBuilder(seed=seed)

    # geography
    b.add_site("eth", 47.3769, 8.5417, "Zurich")
    b.add_site("imperial", 51.4988, -0.1749, "London")
    b.add_site("uva", 52.3676, 4.9041, "Amsterdam")
    b.add_site("cloudx-fra", 50.1109, 8.6821, "Frankfurt")
    b.add_site("cloudx-lon", 51.5074, -0.1278, "London (DC)")

    # economy
    eth = b.autonomous_system("eth-campus")
    imperial = b.autonomous_system("imperial-campus")
    uva = b.autonomous_system("uva-campus")
    isp = b.autonomous_system("commodity-isp")
    geant = b.autonomous_system("geant")
    cloudx = b.autonomous_system("cloudx")
    b.customer(isp, eth).customer(geant, eth)
    b.customer(isp, imperial)
    b.customer(geant, uva)
    b.peer(geant, cloudx)
    b.peer(isp, cloudx)
    b.peer(isp, geant)
    # GEANT's commercial peering service: UvA subscribes, ETH does not
    b.export_deny(geant, eth, [cloudx])

    # backbone routers
    b.router("isp-core", isp, site="cloudx-fra")
    b.router("geant-fra", geant, site="cloudx-fra")
    b.router("geant-ams", geant, site="uva")
    b.router("cloudx-fra-edge", cloudx, site="cloudx-fra")
    b.router("cloudx-lon-edge", cloudx, site="cloudx-lon")

    # campuses and the DTN
    b.campus("eth", eth, access_bps=mbps(100))
    b.campus("imperial", imperial, access_bps=mbps(100))
    b.dtn("uva", uva, attach_to="geant-ams", uplink_bps=mbps(1000))

    # wiring (capacity, one-way delay)
    b.link("eth-border", "isp-core", mbps(1000), ms(4))
    b.link("eth-border", "geant-fra", mbps(1000), ms(3))
    b.link("imperial-border", "isp-core", mbps(1000), ms(5))
    b.link("geant-fra", "geant-ams", mbps(2000), ms(4))
    b.link("isp-core", "geant-fra", mbps(6), ms(1))          # reluctant peering
    b.link("isp-core", "cloudx-fra-edge", mbps(8), ms(1))    # the congested peering
    b.link("geant-fra", "cloudx-fra-edge", mbps(80), ms(1))  # the fat R&E peering
    b.link("cloudx-fra-edge", "cloudx-lon-edge", mbps(2000), ms(5))

    # the provider, with POPs in Frankfurt and London
    provider = b.provider("cloudx", cloudx, attach_to="cloudx-fra-edge",
                          protocol="gdrive", site="cloudx-fra",
                          display_name="CloudX Storage")
    b.add_pop(provider, cloudx, attach_to="cloudx-lon-edge", site="cloudx-lon")
    return b


def build_europe(seed: int = 0):
    return europe_builder(seed).build()


def main() -> None:
    world = build_europe(seed=3)

    print("Geo-DNS steering:")
    provider = world.provider("cloudx")
    for client in ("eth", "imperial"):
        pop = provider.frontend_for(world.dns, world.host_of(client))
        print(f"  {client:>9} -> {pop}")

    planner = DetourPlanner(world, runs_per_route=2, discard_runs=0)
    for client in ("eth", "imperial"):
        print(f"\n=== {client} -> CloudX, 100 MB ===")
        comparison = planner.compare(client, "cloudx", int(mb(100)))
        print(comparison.render())

    print("\nSame ISP throttle, opposite conclusions: the detour only pays")
    print("for the client with a research-network path to the DTN — the")
    print("paper's UBC-vs-UCLA asymmetry, rebuilt from scratch in ~60 lines.")


if __name__ == "__main__":
    main()
