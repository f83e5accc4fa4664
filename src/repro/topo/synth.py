"""Deterministic synthetic internet generator.

Expands a synthetic :class:`~repro.topo.spec.TopoSpec` into a
:class:`~repro.topo.spec.TopoGraph`:

* a **transit tier** — tier-1 ASes in a full settlement-free peer mesh,
  one backbone router each, placed at region hubs;
* a **mid tier** — regional networks, customers of their two nearest
  transit ASes, optionally peering among themselves;
* a **stub tier** — edge ASes (campuses/eyeballs) multihomed into the
  mid tier with preferential attachment, each hosting geo-scattered
  client sites behind lognormal access links;
* **cloud providers** — one AS per provider with a POP ring; every
  provider peers with *every* transit AS (clouds peer ubiquitously, so
  valley-free routing reaches them from any stub);
* **DTN sites** — fat-uplinked intermediate hosts on mid-tier routers,
  the paper's UAlberta pattern at scale.

Every random draw comes from a named :class:`~repro.sim.rng.RngRegistry`
stream derived from ``params.seed``, and every loop runs in index order,
so the same spec expands to the same graph on any machine.  Each tier
primes its named streams in one batch before its loop
(:meth:`~repro.sim.rng.RngRegistry.prime`: the same draws as seeding
them one by one, at a fraction of the cost).  Generated site keys are
namespaced by the spec's content-hash tag (``w1a2b3c-c0007``) so
registering them never collides with the case-study registry or with
other generated worlds.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import TopoError
from repro.geo.coords import GeoPoint, haversine_km
from repro.sim.rng import RngRegistry
from repro.topo.spec import (
    AsRec,
    LinkRec,
    NodeRec,
    ProviderRec,
    RegionSpec,
    SiteRec,
    SyntheticParams,
    TopoGraph,
    TopoSpec,
)
from repro.units import propagation_delay_s

__all__ = ["generate"]

#: ASN bases per tier (disjoint for any plausible tier size).
_ASN_TRANSIT = 1000
_ASN_MID = 2000
_ASN_STUB = 10000
_ASN_PROVIDER = 60000

#: Upload-protocol factories cycled over synthetic providers.
_PROTOCOL_CYCLE = ("gdrive", "dropbox", "onedrive")

#: Canonical provider names for the first three synthetic providers, so
#: fleet defaults (``provider="gdrive"``) work on generated worlds.
_PROVIDER_NAMES = ("gdrive", "dropbox", "onedrive")


def _addr(index: int) -> str:
    """The *index*-th host address in 10.0.0.0/8 (last octet in 1..254)."""
    rest, last = divmod(index, 254)
    second, third = divmod(rest, 256)
    if second > 255:
        raise TopoError(f"address space exhausted at node index {index}")
    return f"10.{second}.{third}.{last + 1}"


def _clamp(value: float, lo: float, hi: float) -> float:
    return lo if value < lo else hi if value > hi else value


class _Builder:
    """Accumulates graph records in deterministic construction order."""

    def __init__(self, params: SyntheticParams, tag: str):
        self.p = params
        self.tag = tag
        self.rng = RngRegistry(params.seed)
        self.sites: List[SiteRec] = []
        self.ases: List[AsRec] = []
        self.nodes: List[NodeRec] = []
        self.links: List[LinkRec] = []
        self.customers: List[Tuple[int, int]] = []
        self.peerings: List[Tuple[int, int]] = []
        self.providers: List[ProviderRec] = []
        self.hosts: List[Tuple[str, str]] = []
        self.dtn_sites: List[str] = []
        self.populations: List[Tuple[str, float]] = []
        #: node name -> location, for propagation-delay computation
        self.coords: Dict[str, GeoPoint] = {}
        self._addr_counter = 0
        weights = [r.weight for r in params.regions]
        total = sum(weights)
        if total <= 0:
            raise TopoError("region weights must sum to a positive value")
        self._region_cumulative: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._region_cumulative.append(acc)

    # -- primitives ---------------------------------------------------------

    def next_addr(self) -> str:
        addr = _addr(self._addr_counter)
        self._addr_counter += 1
        return addr

    def pick_region(self, stream_name: str) -> int:
        """Weighted region index from the named stream."""
        u = float(self.rng.stream(stream_name).random())
        for i, edge in enumerate(self._region_cumulative):
            if u < edge:
                return i
        return len(self._region_cumulative) - 1

    def scatter(self, region: RegionSpec, stream_name: str,
                spread_scale: float = 1.0) -> GeoPoint:
        """A point near the region center (normal scatter, clamped)."""
        gen = self.rng.stream(stream_name)
        dlat = float(gen.normal(0.0, region.spread_deg * spread_scale))
        dlon = float(gen.normal(0.0, region.spread_deg * spread_scale))
        return GeoPoint(_clamp(region.lat + dlat, -85.0, 85.0),
                        _clamp(region.lon + dlon, -179.0, 179.0))

    def add_site(self, key: str, kind: str, loc: GeoPoint, city: str) -> str:
        self.sites.append(SiteRec(key, kind, loc.lat, loc.lon, city=city,
                                  description=f"synthetic world {self.tag}"))
        return key

    def add_node(self, name: str, kind: str, asn: int, loc: GeoPoint,
                 site: str = "", responds: bool = True) -> str:
        # hostname == name is the canonical form compile_graph normalizes
        # to; emitting it directly keeps to_graph() an exact inverse
        self.nodes.append(NodeRec(name, kind, asn, self.next_addr(),
                                  hostname=name, site=site, responds=responds))
        self.coords[name] = loc
        return name

    def add_link(self, u: str, v: str, capacity_bps: float,
                 extra_delay_s: float = 0.0) -> None:
        delay = propagation_delay_s(
            haversine_km(self.coords[u], self.coords[v])) + extra_delay_s
        self.links.append(LinkRec(u, v, capacity_bps=capacity_bps,
                                  delay_s=delay,
                                  jitter_sigma=self.p.capacity_jitter_sigma))

    # -- tiers ----------------------------------------------------------------

    def build_transit(self) -> List[str]:
        p = self.p
        routers = []
        self.rng.prime(f"topo.geo.transit.{i}" for i in range(p.n_transit))
        for i in range(p.n_transit):
            region = p.regions[i % len(p.regions)]
            loc = self.scatter(region, f"topo.geo.transit.{i}", 0.25)
            site = self.add_site(f"{self.tag}-t{i:02d}", "exchange", loc,
                                 f"{region.name} transit hub")
            asn = _ASN_TRANSIT + i
            self.ases.append(AsRec(asn, f"transit{i:02d}", "transit"))
            routers.append(self.add_node(f"t{i:02d}-r", "router", asn, loc, site))
        # full tier-1 peer mesh
        for i in range(p.n_transit):
            for j in range(i + 1, p.n_transit):
                self.peerings.append((_ASN_TRANSIT + i, _ASN_TRANSIT + j))
                self.add_link(routers[i], routers[j], p.backbone_bps)
        return routers

    def build_mid(self, transit_routers: List[str]) -> List[str]:
        p = self.p
        routers = []
        self.rng.prime(["topo.peer.mid"] + [
            f"topo.{family}.mid.{i}"
            for i in range(p.n_mid) for family in ("region", "geo")])
        for i in range(p.n_mid):
            region = p.regions[self.pick_region(f"topo.region.mid.{i}")]
            loc = self.scatter(region, f"topo.geo.mid.{i}", 0.5)
            site = self.add_site(f"{self.tag}-m{i:02d}", "exchange", loc,
                                 f"{region.name} regional network")
            asn = _ASN_MID + i
            self.ases.append(AsRec(asn, f"mid{i:02d}", "mid"))
            router = self.add_node(f"m{i:02d}-r", "router", asn, loc, site)
            routers.append(router)
            # customer of the two nearest transit ASes (ties by index)
            ranked = sorted(
                range(len(transit_routers)),
                key=lambda t: (haversine_km(loc, self.coords[transit_routers[t]]), t))
            for t in ranked[:min(2, len(ranked))]:
                self.customers.append((_ASN_TRANSIT + t, asn))
                self.add_link(router, transit_routers[t], p.transit_uplink_bps)
        # sparse settlement-free mesh among mids
        peer_gen = self.rng.stream("topo.peer.mid")
        for i in range(p.n_mid):
            for j in range(i + 1, p.n_mid):
                if float(peer_gen.random()) < p.mid_peering_prob:
                    self.peerings.append((_ASN_MID + i, _ASN_MID + j))
                    self.add_link(routers[i], routers[j], p.peering_bps)
        return routers

    def build_providers(self, transit_routers: List[str]) -> None:
        p = self.p
        names = [_PROVIDER_NAMES[k] if k < len(_PROVIDER_NAMES)
                 else f"cloud{k}" for k in range(p.n_providers)]
        self.rng.prime(f"topo.geo.pop.{name}.{j}" for name in names
                       for j in range(p.pops_per_provider))
        for k, name in enumerate(names):
            asn = _ASN_PROVIDER + k
            self.ases.append(AsRec(asn, name, "provider"))
            pop_routers: List[str] = []
            frontends: List[str] = []
            step = max(1, len(p.regions) // p.pops_per_provider)
            for j in range(p.pops_per_provider):
                region = p.regions[(j * step + k) % len(p.regions)]
                loc = self.scatter(region, f"topo.geo.pop.{name}.{j}", 0.2)
                site = self.add_site(f"{self.tag}-{name}-pop{j}", "cloud_dc",
                                     loc, f"{region.name} {name} POP")
                router = self.add_node(f"{name}-pop{j}-r", "router", asn, loc, site)
                fe = self.add_node(f"{name}-pop{j}-fe", "host", asn, loc, site)
                self.add_link(router, fe, p.pop_bps, self.p.local_delay_s)
                pop_routers.append(router)
                frontends.append(fe)
            # POP backbone ring (a single POP needs no internal mesh)
            for j in range(len(pop_routers)):
                nxt = (j + 1) % len(pop_routers)
                if nxt == j or (len(pop_routers) == 2 and j == 1):
                    continue
                self.add_link(pop_routers[j], pop_routers[nxt], p.backbone_bps)
            # peer with every transit AS via the nearest POP router, so
            # valley-free routing reaches the provider from any stub
            for t, transit_router in enumerate(transit_routers):
                self.peerings.append((_ASN_TRANSIT + t, asn))
                tloc = self.coords[transit_router]
                nearest = min(
                    range(len(pop_routers)),
                    key=lambda j: (haversine_km(tloc, self.coords[pop_routers[j]]), j))
                self.add_link(pop_routers[nearest], transit_router, p.peering_bps)
            self.providers.append(ProviderRec(
                name=name,
                display_name=name.capitalize(),
                api_hostname=f"api.{name}.synth",
                auth_hostname=f"auth.{name}.synth",
                frontends=tuple(frontends),
                protocol=_PROTOCOL_CYCLE[k % len(_PROTOCOL_CYCLE)],
            ))

    def build_stubs(self, mid_routers: List[str]) -> Dict[int, Tuple[str, GeoPoint]]:
        """Stub ASes; returns asn -> (border router, location)."""
        p = self.p
        if not mid_routers:
            raise TopoError("stub tier needs at least one mid-tier AS")
        mid_region: Dict[int, int] = {}
        for i, router in enumerate(mid_routers):
            loc = self.coords[router]
            mid_region[i] = min(
                range(len(p.regions)),
                key=lambda r: (haversine_km(
                    loc, GeoPoint(p.regions[r].lat, p.regions[r].lon)), r))
        degree = [0] * len(mid_routers)
        self.rng.prime(["topo.attach.stub"] + [
            f"topo.{family}.stub.{i}"
            for i in range(p.n_stub) for family in ("region", "geo")])
        attach_gen = self.rng.stream("topo.attach.stub")
        borders: Dict[int, Tuple[str, GeoPoint]] = {}
        for i in range(p.n_stub):
            region_idx = self.pick_region(f"topo.region.stub.{i}")
            loc = self.scatter(p.regions[region_idx], f"topo.geo.stub.{i}")
            asn = _ASN_STUB + i
            self.ases.append(AsRec(asn, f"stub{i:04d}", "stub"))
            border = self.add_node(f"s{i:04d}-br", "router", asn, loc)
            borders[asn] = (border, loc)
            # number of uplinks: 1 + Poisson(mean - 1), capped at n_mid
            extra = int(attach_gen.poisson(p.mean_stub_uplinks - 1.0))
            n_uplinks = min(1 + extra, len(mid_routers))
            # first uplink prefers same-region mids; extras go anywhere
            regional = [m for m in range(len(mid_routers))
                        if mid_region[m] == region_idx]
            chosen: List[int] = []
            for u in range(n_uplinks):
                pool = regional if (u == 0 and regional) else \
                    list(range(len(mid_routers)))
                pool = [m for m in pool if m not in chosen]
                if not pool:
                    break
                weights = [(degree[m] + 1.0) ** p.attachment_bias for m in pool]
                total = sum(weights)
                pick = float(attach_gen.random()) * total
                acc = 0.0
                m_sel = pool[-1]
                for m, w in zip(pool, weights):
                    acc += w
                    if pick < acc:
                        m_sel = m
                        break
                chosen.append(m_sel)
                degree[m_sel] += 1
                self.customers.append((_ASN_MID + m_sel, asn))
                self.add_link(border, mid_routers[m_sel], p.campus_bps)
        return borders

    def build_clients(self, borders: Dict[int, Tuple[str, GeoPoint]]) -> None:
        p = self.p
        stub_by_region: Dict[int, List[int]] = {}
        for asn in sorted(borders):
            _, loc = borders[asn]
            region_idx = min(
                range(len(p.regions)),
                key=lambda r: (haversine_km(
                    loc, GeoPoint(p.regions[r].lat, p.regions[r].lon)), r))
            stub_by_region.setdefault(region_idx, []).append(asn)
        all_stubs = sorted(borders)
        # lognormal_factor draws nothing at sigma 0, so those go unprimed
        families = ["topo.region.client.{}", "topo.geo.client.{}"]
        if p.access_sigma > 0:
            families.append("topo.access.cap.{}")
        if p.site_population_sigma > 0:
            families.append("topo.population.{}")
        self.rng.prime(["topo.place.client"] + [
            family.format(i)
            for i in range(p.n_client_sites) for family in families])
        place_gen = self.rng.stream("topo.place.client")
        for i in range(p.n_client_sites):
            region_idx = self.pick_region(f"topo.region.client.{i}")
            pool = stub_by_region.get(region_idx) or all_stubs
            asn = pool[int(place_gen.integers(0, len(pool)))]
            border, _ = borders[asn]
            loc = self.scatter(p.regions[region_idx], f"topo.geo.client.{i}")
            site = self.add_site(f"{self.tag}-c{i:04d}", "client", loc,
                                 p.regions[region_idx].name)
            host = self.add_node(f"c{i:04d}-h", "host", asn, loc, site)
            capacity = p.access_median_bps * self.rng.lognormal_factor(
                f"topo.access.cap.{i}", p.access_sigma)
            # floor the lognormal tail so no site starves the simulator
            capacity = max(capacity, p.access_floor_bps)
            self.links.append(LinkRec(
                host, border, capacity_bps=capacity,
                delay_s=propagation_delay_s(
                    haversine_km(loc, self.coords[border])) + p.local_delay_s,
                jitter_sigma=p.capacity_jitter_sigma))
            self.hosts.append((site, host))
            weight = p.site_population_median * self.rng.lognormal_factor(
                f"topo.population.{i}", p.site_population_sigma)
            self.populations.append((site, weight))

    def build_dtns(self, mid_routers: List[str]) -> None:
        p = self.p
        self.rng.prime(f"topo.geo.dtn.{j}" for j in range(p.n_dtn_sites))
        for j in range(p.n_dtn_sites):
            region = p.regions[j % len(p.regions)]
            loc = self.scatter(region, f"topo.geo.dtn.{j}", 0.3)
            site = self.add_site(f"{self.tag}-d{j}", "intermediate", loc,
                                 f"{region.name} DTN")
            nearest = min(
                range(len(mid_routers)),
                key=lambda m: (haversine_km(loc, self.coords[mid_routers[m]]), m))
            host = self.add_node(f"d{j}-dtn", "host", _ASN_MID + nearest, loc, site)
            self.links.append(LinkRec(
                host, mid_routers[nearest], capacity_bps=p.dtn_access_bps,
                delay_s=propagation_delay_s(
                    haversine_km(loc, self.coords[mid_routers[nearest]]))
                + p.local_delay_s,
                jitter_sigma=p.capacity_jitter_sigma))
            self.hosts.append((site, host))
            self.dtn_sites.append(site)

    def graph(self) -> TopoGraph:
        return TopoGraph(
            sites=tuple(self.sites),
            ases=tuple(self.ases),
            nodes=tuple(self.nodes),
            links=tuple(self.links),
            customers=tuple(self.customers),
            peerings=tuple(self.peerings),
            providers=tuple(self.providers),
            hosts=tuple(self.hosts),
            dtn_sites=tuple(self.dtn_sites),
            populations=tuple(self.populations),
        )


def generate(spec: TopoSpec) -> TopoGraph:
    """Expand a spec into its explicit graph.

    Explicit specs return their embedded graph unchanged; synthetic
    specs run the generator.  Deterministic: same spec, same graph.
    """
    if spec.source == "explicit":
        assert spec.graph is not None
        return spec.graph
    assert spec.synthetic is not None
    params = spec.synthetic
    b = _Builder(params, spec.tag)
    transit = b.build_transit()
    mids = b.build_mid(transit)
    b.build_providers(transit)
    borders = b.build_stubs(mids)
    b.build_clients(borders)
    b.build_dtns(mids)
    return b.graph()
