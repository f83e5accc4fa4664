"""Topology specifications: the serializable *source of truth* for worlds.

A :class:`TopoSpec` describes one world either **synthetically** (a
:class:`SyntheticParams` recipe the generator in :mod:`repro.topo.synth`
expands deterministically) or **explicitly** (a full :class:`TopoGraph`
carried inline — the path taken by the calibrated case study and by ITDK
ingestion).  Specs serialize to canonical JSON; their sha256 content hash
names the compiled artifact and the route cache, so campaign cells can
reference a world by hash and two machines that agree on the spec agree
on every byte of the compiled topology.

The intermediate :class:`TopoGraph` is deliberately dumb: tuples of plain
records in a *fixed order* (node/link order is semantic — IGP tie-breaks
follow adjacency insertion order, see ``docs/invariants.md``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core.identity import content_key
from repro.errors import TopoError
from repro.units import gbps, mbps, ms

__all__ = [
    "RegionSpec",
    "SyntheticParams",
    "SiteRec",
    "NodeRec",
    "LinkRec",
    "AsRec",
    "PbrRec",
    "ProviderRec",
    "TopoGraph",
    "TopoSpec",
    "PRESETS",
    "preset_spec",
]

#: Format version of the spec JSON; bump on incompatible record changes.
SPEC_VERSION = 1


# ---------------------------------------------------------------------------
# synthetic recipe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionSpec:
    """A geographic region client sites and hubs are scattered around."""

    name: str
    lat: float
    lon: float
    #: stddev (degrees) of site placement around the region center
    spread_deg: float = 3.0
    #: relative share of stub ASes / client sites placed here
    weight: float = 1.0


#: Eight-region default roughly matching where cloud POPs concentrate
#: (CloudCast's measurement footprint): NA x3, EU x2, APAC x2, SA x1.
DEFAULT_REGIONS: Tuple[RegionSpec, ...] = (
    RegionSpec("na-west", 47.61, -122.33, weight=2.0),
    RegionSpec("na-central", 41.88, -87.63, weight=2.0),
    RegionSpec("na-east", 39.04, -77.49, weight=2.0),
    RegionSpec("eu-west", 51.51, -0.13, weight=1.5),
    RegionSpec("eu-central", 50.11, 8.68, weight=1.5),
    RegionSpec("apac-ne", 35.68, 139.69, weight=1.0),
    RegionSpec("apac-se", 1.35, 103.82, weight=1.0),
    RegionSpec("sa-east", -23.55, -46.63, weight=0.5),
)


@dataclass(frozen=True)
class SyntheticParams:
    """Knobs for the deterministic AS-level world generator.

    The generated graph has four AS tiers — a full transit (tier-1) peer
    mesh, regional mid-tier networks multihomed into it, edge stub ASes
    hosting client sites, and cloud-provider ASes whose POP meshes peer
    with the transit core — plus DTN sites attached to mid-tier networks
    with fat uplinks (the paper's UAlberta pattern at scale).
    """

    seed: int = 0
    # -- tier sizes ---------------------------------------------------------
    n_transit: int = 4
    n_mid: int = 12
    n_stub: int = 40
    n_providers: int = 3
    pops_per_provider: int = 2
    n_client_sites: int = 80
    n_dtn_sites: int = 2
    # -- degree / attachment shape -----------------------------------------
    #: mean uplinks per stub AS (>=1; extra uplinks are preferential)
    mean_stub_uplinks: float = 1.6
    #: probability of a settlement-free peering between two mid ASes
    mid_peering_prob: float = 0.08
    #: preferential-attachment exponent: stub uplinks pick a mid-tier AS
    #: with probability proportional to (degree + 1) ** bias
    attachment_bias: float = 1.0
    # -- capacities ---------------------------------------------------------
    backbone_bps: float = gbps(100)
    transit_uplink_bps: float = gbps(40)
    peering_bps: float = gbps(10)
    pop_bps: float = gbps(40)
    access_median_bps: float = mbps(200)
    #: log-space sigma of the per-site access-capacity lognormal
    access_sigma: float = 0.6
    #: floor under the lognormal tail so no site starves the simulator
    access_floor_bps: float = mbps(2)
    dtn_access_bps: float = gbps(10)
    campus_bps: float = gbps(1)
    # -- delays --------------------------------------------------------------
    #: one-way delay of intra-site (host to border) links
    local_delay_s: float = ms(0.2)
    # -- stochastic world texture -------------------------------------------
    #: per-link capacity jitter sigma applied at materialize time
    capacity_jitter_sigma: float = 0.02
    #: lognormal shape of per-site client populations (sampling weights)
    site_population_median: float = 100.0
    site_population_sigma: float = 1.0
    # -- geography ----------------------------------------------------------
    regions: Tuple[RegionSpec, ...] = DEFAULT_REGIONS

    def __post_init__(self) -> None:
        if self.n_transit < 1:
            raise TopoError("need at least one transit AS")
        if self.n_providers < 1 or self.pops_per_provider < 1:
            raise TopoError("need at least one provider with one POP")
        if self.n_client_sites < 1 or self.n_stub < 1:
            raise TopoError("need at least one stub AS and one client site")
        if self.mean_stub_uplinks < 1.0:
            raise TopoError("mean_stub_uplinks must be >= 1")
        if not self.regions:
            raise TopoError("need at least one region")

    def total_ases(self) -> int:
        return self.n_transit + self.n_mid + self.n_stub + self.n_providers

    def total_sites(self) -> int:
        return (self.n_client_sites + self.n_dtn_sites
                + self.n_transit + self.n_mid
                + self.n_providers * self.pops_per_provider)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["regions"] = [asdict(r) for r in self.regions]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticParams":
        d = dict(d)
        d["regions"] = tuple(RegionSpec(**r) for r in d.get("regions", ()))
        return cls(**d)


# ---------------------------------------------------------------------------
# graph records (the explicit representation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteRec:
    """A geographic site (mirrors :class:`repro.geo.sites.Site`)."""

    name: str
    kind: str  # SiteKind value: client / intermediate / cloud_dc / exchange
    lat: float
    lon: float
    city: str = ""
    description: str = ""
    planetlab: bool = False


@dataclass(frozen=True)
class NodeRec:
    """A device (mirrors :class:`repro.net.topology.Node`)."""

    name: str
    kind: str  # NodeKind value: host / router / middlebox
    asn: int
    address: str
    hostname: str = ""
    site: str = ""
    responds: bool = True
    firewall_per_flow_bps: Optional[float] = None


@dataclass(frozen=True)
class LinkRec:
    """A link (mirrors :class:`repro.net.topology.Link`).

    ``policers`` maps a *node name* on the link to the egress policing
    rate; ``jitter_sigma`` is the log-space sigma of the multiplicative
    capacity jitter drawn at materialize time from the per-world RNG
    (stream ``capjitter.<link name>``).
    """

    u: str
    v: str
    capacity_bps: float
    delay_s: float
    loss: float = 0.0
    igp_cost: float = 1.0
    policers: Tuple[Tuple[str, float], ...] = ()
    jitter_sigma: float = 0.0

    @property
    def name(self) -> str:
        return f"{self.u}--{self.v}"


@dataclass(frozen=True)
class AsRec:
    """One autonomous system with its tier label."""

    asn: int
    name: str
    tier: str = ""  # transit / mid / stub / provider / edu / ...


@dataclass(frozen=True)
class PbrRec:
    """A policy-based-routing rule (mirrors :class:`repro.net.policy.PbrRule`)."""

    node: str
    out_link: str
    src_prefixes: Tuple[str, ...] = ()
    dest_asns: Tuple[int, ...] = ()
    description: str = ""


@dataclass(frozen=True)
class ProviderRec:
    """A cloud-storage provider and its POP frontends.

    ``protocol`` names the upload-protocol factory (``gdrive`` /
    ``dropbox`` / ``onedrive``) — protocol objects don't serialize, so
    providers are data here and behaviour at materialize.
    """

    name: str
    display_name: str
    api_hostname: str
    auth_hostname: str
    frontends: Tuple[str, ...]
    protocol: str


@dataclass(frozen=True)
class TopoGraph:
    """The full explicit world description, in build order.

    Tuple order is semantic: nodes and links are added to the
    :class:`~repro.net.topology.Topology` in exactly this order so
    adjacency-driven tie-breaks reproduce byte-identically.
    ``export_deny`` encodes per-neighbor BGP export filters as *deny
    lists* of destination ASNs, the form
    :meth:`~repro.net.asn.ASGraph.set_export_deny` takes.
    """

    sites: Tuple[SiteRec, ...] = ()
    ases: Tuple[AsRec, ...] = ()
    nodes: Tuple[NodeRec, ...] = ()
    links: Tuple[LinkRec, ...] = ()
    #: (provider_asn, customer_asn) pairs
    customers: Tuple[Tuple[int, int], ...] = ()
    #: (asn, asn) settlement-free pairs
    peerings: Tuple[Tuple[int, int], ...] = ()
    #: (announcer_asn, neighbor_asn, denied destination ASNs)
    export_deny: Tuple[Tuple[int, int, Tuple[int, ...]], ...] = ()
    pbr_rules: Tuple[PbrRec, ...] = ()
    providers: Tuple[ProviderRec, ...] = ()
    #: site key -> host node name (the world's transfer endpoints)
    hosts: Tuple[Tuple[str, str], ...] = ()
    #: site keys (subset of ``hosts``) that run a DTN
    dtn_sites: Tuple[str, ...] = ()
    #: site key -> relative client-population weight (sampling prior)
    populations: Tuple[Tuple[str, float], ...] = ()

    def to_dict(self) -> dict:
        return {
            "sites": [asdict(s) for s in self.sites],
            "ases": [asdict(a) for a in self.ases],
            "nodes": [asdict(n) for n in self.nodes],
            "links": [asdict(l) for l in self.links],
            "customers": [list(c) for c in self.customers],
            "peerings": [list(p) for p in self.peerings],
            "export_deny": [[a, n, list(d)] for a, n, d in self.export_deny],
            "pbr_rules": [asdict(r) for r in self.pbr_rules],
            "providers": [asdict(p) for p in self.providers],
            "hosts": [list(h) for h in self.hosts],
            "dtn_sites": list(self.dtn_sites),
            "populations": [list(p) for p in self.populations],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TopoGraph":
        def links():
            for raw in d.get("links", ()):
                raw = dict(raw)
                raw["policers"] = tuple(
                    (n, float(r)) for n, r in raw.get("policers", ()))
                yield LinkRec(**raw)

        def pbr():
            for raw in d.get("pbr_rules", ()):
                raw = dict(raw)
                raw["src_prefixes"] = tuple(raw.get("src_prefixes", ()))
                raw["dest_asns"] = tuple(raw.get("dest_asns", ()))
                yield PbrRec(**raw)

        def providers():
            for raw in d.get("providers", ()):
                raw = dict(raw)
                raw["frontends"] = tuple(raw.get("frontends", ()))
                yield ProviderRec(**raw)

        return cls(
            sites=tuple(SiteRec(**s) for s in d.get("sites", ())),
            ases=tuple(AsRec(**a) for a in d.get("ases", ())),
            nodes=tuple(NodeRec(**n) for n in d.get("nodes", ())),
            links=tuple(links()),
            customers=tuple((int(a), int(b)) for a, b in d.get("customers", ())),
            peerings=tuple((int(a), int(b)) for a, b in d.get("peerings", ())),
            export_deny=tuple(
                (int(a), int(n), tuple(int(x) for x in deny))
                for a, n, deny in d.get("export_deny", ())),
            pbr_rules=tuple(pbr()),
            providers=tuple(providers()),
            hosts=tuple((s, n) for s, n in d.get("hosts", ())),
            dtn_sites=tuple(d.get("dtn_sites", ())),
            populations=tuple((s, float(w)) for s, w in d.get("populations", ())),
        )

    def stats(self) -> Dict[str, int]:
        return {
            "sites": len(self.sites),
            "ases": len(self.ases),
            "nodes": len(self.nodes),
            "links": len(self.links),
            "hosts": len(self.hosts),
            "dtns": len(self.dtn_sites),
            "providers": len(self.providers),
        }


# ---------------------------------------------------------------------------
# the spec itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopoSpec:
    """One world, by recipe or by value.

    ``source`` is ``"synthetic"`` (``synthetic`` set, ``graph`` empty —
    the generator expands it) or ``"explicit"`` (``graph`` set).  The
    content hash is computed over the canonical JSON of either form, so
    a synthetic spec hashes its *recipe*, not the expanded graph: cheap
    to exchange, and expansion is deterministic.
    """

    name: str
    source: str = "synthetic"
    synthetic: Optional[SyntheticParams] = None
    graph: Optional[TopoGraph] = None

    def __post_init__(self) -> None:
        if self.source == "synthetic":
            if self.synthetic is None:
                object.__setattr__(self, "synthetic", SyntheticParams())
            if self.graph is not None:
                raise TopoError("synthetic specs must not embed a graph")
        elif self.source == "explicit":
            if self.graph is None:
                raise TopoError("explicit specs need a graph")
            if self.synthetic is not None:
                raise TopoError("explicit specs must not carry synthetic params")
        else:
            raise TopoError(
                f"unknown spec source {self.source!r} "
                f"(expected 'synthetic' or 'explicit')")

    # -- identity -----------------------------------------------------------

    def canonical_dict(self) -> dict:
        return {
            "version": SPEC_VERSION,
            "name": self.name,
            "source": self.source,
            "synthetic": self.synthetic.to_dict() if self.synthetic else None,
            "graph": self.graph.to_dict() if self.graph else None,
        }

    def content_hash(self) -> str:
        """sha256 hex digest of the canonical JSON encoding."""
        return content_key(self.canonical_dict())

    @property
    def tag(self) -> str:
        """Short world tag used to namespace generated site keys."""
        return f"w{self.content_hash()[:6]}"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, d: dict) -> "TopoSpec":
        version = d.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise TopoError(
                f"spec version {version} not supported (expected {SPEC_VERSION})")
        synthetic = d.get("synthetic")
        graph = d.get("graph")
        return cls(
            name=d["name"],
            source=d.get("source", "synthetic"),
            synthetic=SyntheticParams.from_dict(synthetic) if synthetic else None,
            graph=TopoGraph.from_dict(graph) if graph else None,
        )

    @classmethod
    def from_json(cls, text: str) -> "TopoSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise TopoError(f"spec is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise TopoError("spec JSON must be an object")
        return cls.from_dict(payload)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

#: Named generator recipes.  ``internet`` clears the acceptance floor of
#: the scale work: >= 1000 ASes and >= 2000 sites.
PRESETS: Dict[str, SyntheticParams] = {
    "smoke": SyntheticParams(
        n_transit=2, n_mid=3, n_stub=6, n_providers=2, pops_per_provider=1,
        n_client_sites=10, n_dtn_sites=1),
    "metro": SyntheticParams(
        n_transit=4, n_mid=16, n_stub=120, n_providers=3, pops_per_provider=2,
        n_client_sites=300, n_dtn_sites=4),
    "internet": SyntheticParams(
        n_transit=8, n_mid=60, n_stub=940, n_providers=3, pops_per_provider=4,
        n_client_sites=2200, n_dtn_sites=8),
}


def preset_spec(preset: str, seed: int = 0, name: str = "") -> TopoSpec:
    """A synthetic :class:`TopoSpec` from a named preset."""
    try:
        params = PRESETS[preset]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise TopoError(f"unknown preset {preset!r}; known: {known}") from None
    params = replace(params, seed=seed)
    return TopoSpec(name=name or f"{preset}-s{seed}", source="synthetic",
                    synthetic=params)
