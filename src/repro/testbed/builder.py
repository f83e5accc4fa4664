"""Declarative world builder for user-defined scenarios.

The calibrated case study (:mod:`repro.testbed.build`) reproduces the
paper; :class:`WorldBuilder` is for everyone else — model *your* campus,
*your* providers, *your* policies, and run the same planners, selectors
and benchmarks against it:

    b = WorldBuilder(seed=7)
    b.add_site("eth", 47.3769, 8.5417, "Zurich")
    edu = b.autonomous_system("eth-campus")
    geant = b.autonomous_system("geant")
    b.customer(provider=geant, customer=edu)
    client = b.campus("eth", asn=edu, access_bps=mbps(100))
    ...
    world = b.build()

The builder handles the bookkeeping the raw records expect: address
allocation, border routers and inter-AS link naming.  Its calls append
:mod:`repro.topo.spec` records in call order; :meth:`WorldBuilder.spec`
returns them as an explicit :class:`~repro.topo.spec.TopoSpec` (usable
as a fleet, campaign or shard ``topo=`` input), and
:meth:`WorldBuilder.build` compiles and materializes that spec exactly
like the case study.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.world import World
from repro.errors import TopologyError
from repro.geo.coords import GeoPoint
from repro.geo.sites import Site, SiteKind, SITES, register_site
from repro.net.address import PrefixAllocator
from repro.net.crosstraffic import CrossTrafficConfig, start_sources
from repro.net.topology import NodeKind
from repro.topo.materialize import compile_spec, materialize, site_records
from repro.topo.spec import (
    AsRec,
    LinkRec,
    NodeRec,
    PbrRec,
    ProviderRec,
    TopoGraph,
    TopoSpec,
)
from repro.units import mbps, ms

__all__ = ["WorldBuilder"]


class WorldBuilder:
    """Accumulates a scenario as records, then compiles it into a :class:`World`."""

    def __init__(self, seed: int = 0, trace: bool = False):
        self.seed = seed
        self.trace = trace
        self._asn_counter = itertools.count(64512)  # private ASN range
        self._prefix_counter = itertools.count(0)
        self._allocators: Dict[int, PrefixAllocator] = {}
        self._ases: List[AsRec] = []
        self._nodes: List[NodeRec] = []
        self._links: List[LinkRec] = []
        self._customers: List[Tuple[int, int]] = []
        self._peerings: List[Tuple[int, int]] = []
        self._export_deny: List[Tuple[int, int, Tuple[int, ...]]] = []
        self._pbr: List[PbrRec] = []
        self._providers: Dict[str, ProviderRec] = {}
        self._hosts: Dict[str, str] = {}
        self._dtn_sites: List[str] = []
        self._cross: List[CrossTrafficConfig] = []
        self._built = False

    # -- identity helpers ------------------------------------------------------

    def add_site(self, key: str, lat: float, lon: float, city: str,
                 kind: SiteKind = SiteKind.CLIENT) -> Site:
        """Register a geographic site usable by campuses/providers."""
        return register_site(Site(key, kind, GeoPoint(lat, lon), city))

    def autonomous_system(self, name: str, number: Optional[int] = None) -> int:
        """Declare an AS; returns its number (auto-assigned if omitted)."""
        if number is None:
            number = next(self._asn_counter)
        self._ases.append(AsRec(number, name))
        self._allocators[number] = PrefixAllocator(
            f"10.{next(self._prefix_counter) % 200 + 1}.0.0/16"
        )
        return number

    def _addr(self, asn: int) -> str:
        alloc = self._allocators.get(asn)
        if alloc is None:
            raise TopologyError(f"AS{asn} was not declared via autonomous_system()")
        return alloc.host()

    def _node(self, name: str, kind: NodeKind, asn: int, site: str,
              **fields) -> None:
        self._nodes.append(NodeRec(name, kind.value, asn, self._addr(asn),
                                   site=site, **fields))

    # -- relationships & policy -------------------------------------------------

    def customer(self, provider: int, customer: int) -> "WorldBuilder":
        self._customers.append((provider, customer))
        return self

    def peer(self, a: int, b: int) -> "WorldBuilder":
        self._peerings.append((a, b))
        return self

    def export_deny(self, announcer: int, neighbor: int,
                    dests: Sequence[int]) -> "WorldBuilder":
        """*announcer* does not advertise routes to the *dests* ASes to *neighbor*."""
        self._export_deny.append((announcer, neighbor, tuple(sorted(dests))))
        return self

    def pbr(self, node: str, out_link: str, src_prefixes: Sequence[str] = (),
            dest_asns: Sequence[int] = (), description: str = "") -> "WorldBuilder":
        self._pbr.append(PbrRec(node, out_link, tuple(src_prefixes),
                                tuple(dest_asns), description))
        return self

    # -- structure ---------------------------------------------------------------

    def router(self, name: str, asn: int, site: str = "",
               hostname: str = "", responds_to_traceroute: bool = True,
               firewall_per_flow_bps: Optional[float] = None) -> str:
        """Add a router (or middlebox, when it has a firewall cap)."""
        kind = NodeKind.MIDDLEBOX if firewall_per_flow_bps else NodeKind.ROUTER
        self._node(name, kind, asn, site, hostname=hostname,
                   responds=responds_to_traceroute,
                   firewall_per_flow_bps=firewall_per_flow_bps)
        return name

    def campus(self, site_key: str, asn: int, access_bps: float,
               host_name: Optional[str] = None,
               access_delay_s: float = ms(0.2)) -> str:
        """A client campus: one host behind one border router.

        Registers the host under *site_key* in ``world.hosts`` so planners
        can address it by site.
        """
        if site_key not in SITES:
            raise TopologyError(
                f"unknown site {site_key!r}; call add_site() first"
            )
        host = host_name or f"{site_key}-host"
        border = f"{site_key}-border"
        self._node(host, NodeKind.HOST, asn, site_key)
        self._node(border, NodeKind.ROUTER, asn, site_key)
        self.link(host, border, access_bps, access_delay_s)
        self._hosts[site_key] = host
        return host

    def link(self, a: str, b: str, capacity_bps: float, delay_s: float,
             loss: float = 0.0,
             policer_bps: Optional[Dict[str, float]] = None) -> str:
        """Add a link; returns its name, ``"<a>--<b>"``."""
        link = LinkRec(a, b, capacity_bps=capacity_bps, delay_s=delay_s,
                       loss=loss, policers=tuple(sorted((policer_bps or {}).items())))
        self._links.append(link)
        return link.name

    def dtn(self, site_key: str, asn: int, attach_to: str, uplink_bps: float,
            uplink_delay_s: float = ms(0.2)) -> str:
        """A data-transfer node attached to an existing router."""
        host = f"{site_key}-dtn"
        self._node(host, NodeKind.HOST, asn, site_key)
        self.link(host, attach_to, uplink_bps, uplink_delay_s)
        self._hosts[site_key] = host
        self._dtn_sites.append(site_key)
        return host

    def provider(self, name: str, asn: int, attach_to: str, protocol: str,
                 site: str, display_name: str = "", peering_bps: float = mbps(1000),
                 peering_delay_s: float = ms(1)) -> str:
        """A cloud provider: one frontend host peered off *attach_to*.

        *protocol* names the upload protocol (``gdrive``, ``dropbox`` or
        ``onedrive``).  The caller is responsible for the AS relationship
        between the provider's AS and the rest of the graph (usually
        ``peer``).  Returns the provider name.
        """
        frontend = f"{name}-frontend"
        self._node(frontend, NodeKind.HOST, asn, site,
                   hostname=f"storage.{name}.example")
        self.link(attach_to, frontend, peering_bps, peering_delay_s)
        self._providers[name] = ProviderRec(
            name, display_name or name, f"api.{name}.example",
            f"auth.{name}.example", (frontend,), protocol)
        return name

    def add_pop(self, provider: str, asn: int, attach_to: str, site: str,
                peering_bps: float = mbps(1000), peering_delay_s: float = ms(1)) -> str:
        """Add another point of presence to the provider named *provider*.

        Geo-DNS steers each client to its nearest POP, so multi-POP
        providers reproduce the paper's observation that vendors deploy
        POPs "to provide better network performance to the clients".
        """
        rec = self._providers.get(provider)
        if rec is None:
            raise TopologyError(f"provider {provider!r} was not created by this builder")
        index = len(rec.frontends) + 1
        frontend = f"{provider}-frontend{index}"
        self._node(frontend, NodeKind.HOST, asn, site,
                   hostname=f"storage{index}.{provider}.example")
        self.link(attach_to, frontend, peering_bps, peering_delay_s)
        self._providers[provider] = replace(rec, frontends=rec.frontends + (frontend,))
        return frontend

    def cross_traffic(self, link_name: str, from_node: str, utilization: float = 0.0,
                      mean_flow_bytes: float = 4e6,
                      elephant_rate_bps: Optional[float] = None,
                      elephant_on_s: float = 30.0, elephant_off_s: float = 30.0,
                      elephant_flows: int = 1) -> "WorldBuilder":
        self._cross.append(CrossTrafficConfig(
            link_name=link_name, from_node=from_node, utilization=utilization,
            mean_flow_bytes=mean_flow_bytes, elephant_rate_bps=elephant_rate_bps,
            elephant_on_s=elephant_on_s, elephant_off_s=elephant_off_s,
            elephant_flows=elephant_flows,
        ))
        return self

    # -- assembly --------------------------------------------------------------

    def spec(self) -> TopoSpec:
        """The scenario so far as an explicit :class:`TopoSpec`."""
        nodes = tuple(self._nodes)
        return TopoSpec(name="builder", source="explicit", graph=TopoGraph(
            sites=site_records(nodes), ases=tuple(self._ases), nodes=nodes,
            links=tuple(self._links), customers=tuple(self._customers),
            peerings=tuple(self._peerings), export_deny=tuple(self._export_deny),
            pbr_rules=tuple(self._pbr), providers=tuple(self._providers.values()),
            hosts=tuple(self._hosts.items()), dtn_sites=tuple(self._dtn_sites),
        ))

    def build(self) -> World:
        """Compile and materialize :meth:`spec`, then start cross traffic."""
        if self._built:
            raise TopologyError("WorldBuilder.build() may only be called once")
        self._built = True
        world = materialize(compile_spec(self.spec()), seed=self.seed,
                            trace=self.trace)
        if self._cross:
            start_sources(self._cross, world.sim, world.engine, world.rng.stream)
        return world
