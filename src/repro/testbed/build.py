"""Builds the calibrated case-study world.

Topology overview (AS numbers in brackets; * = PlanetLab host):

    ubc-pl*[14] - ubc campus - BCNET[271] - CANARIE vncv[6509]
        CANARIE vncv --(peering, 52M)-- Google peer port (silent) - Google[15169]
        CANARIE vncv --(PBR for PlanetLab prefixes)-- PacificWave[4444]
                       --(policed 9.6M)-- Google edge Seattle
        CANARIE vncv -- CANARIE edmn - Cybera[19515] - UAlberta[3359] (DTN)
        CANARIE vncv --(8M peering)-- Internet2 Seattle[11537]
        CANARIE vncv --(13.8M)-- Dropbox[19679];  --(34.5M)-- Microsoft[8075]
    purdue-pl*[17] - Purdue border --- Internet2 Chicago (R&E only: no
        commercial routes exported to Purdue)  --- TransitA[7018] (congested
        Google/Microsoft interconnects, clean-ish Dropbox)
    umich-pl*[36375] - Internet2 Chicago (TR-CPS subscriber: fat Google /
        Microsoft / Dropbox peerings at Internet2)
    ucla-pl*[52] (1.35M last mile) - TransitB[3356] (clean peerings) and
        Internet2 (R&E only)

The per-path effective throughputs this produces match DESIGN.md Sec. 6.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.core.world import World
from repro.geo.ipgeo import GeoRegistry
from repro.geo.sites import site
from repro.net.crosstraffic import CrossTrafficConfig, start_sources
from repro.net.topology import NodeKind, Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import KernelProfiler
from repro.testbed.params import CaseStudyParams, DEFAULT_PARAMS
from repro.topo.compiled import CompiledTopology
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
from repro.units import ms

__all__ = ["AS_NUMBERS", "build_case_study", "build_geo_registry",
           "case_study_topo_spec", "world_factory"]

#: AS numbers used throughout (real-world numbers where they exist).
AS_NUMBERS: Dict[str, int] = {
    "ubc": 14,
    "bcnet": 271,
    "canarie": 6509,
    "cybera": 19515,
    "ualberta": 3359,
    "pacificwave": 4444,
    "google": 15169,
    "internet2": 11537,
    "umich": 36375,
    "purdue": 17,
    "ucla": 52,
    "transit-a": 7018,
    "transit-b": 3356,
    "dropbox": 19679,
    "microsoft": 8075,
}

#: The UBC PlanetLab subnet whose Google-bound traffic CANARIE's Vancouver
#: router steers through Pacific Wave (the paper's Figs. 5 vs 6 artifact).
UBC_PLANETLAB_PREFIX = "142.103.78.0/24"


def _nodes(params: CaseStudyParams):
    """(name, kind, as, address, hostname, site, responds) tuples."""
    H, R, M = NodeKind.HOST, NodeKind.ROUTER, NodeKind.MIDDLEBOX
    A = AS_NUMBERS
    return [
        # -- UBC (Vancouver) -------------------------------------------------
        ("ubc-pl", H, A["ubc"], "142.103.78.10", "planetlab1.cs.ubc.ca", "ubc", True),
        ("ubc-campus", R, A["ubc"], "142.103.2.253", "a0-a1.net.ubc.ca", "ubc", True),
        ("ubc-border", R, A["ubc"], "137.82.123.137", "anguborder-a0.net.ubc.ca", "ubc", True),
        ("bcnet-van", R, A["bcnet"], "134.87.0.58", "345-IX-crl-UBCAb.vncv1.BC.net",
         "canarie-vancouver", True),
        # -- CANARIE ----------------------------------------------------------
        ("canarie-vncv", R, A["canarie"], "199.212.24.1", "vncv1rtr2.canarie.ca",
         "canarie-vancouver", True),
        ("canarie-edmn", R, A["canarie"], "199.212.24.68", "edmn1rtr2.canarie.ca",
         "canarie-edmonton", True),
        # -- Cybera + UAlberta (Edmonton) -------------------------------------
        ("cybera-edm", R, A["cybera"], "199.116.233.66", "uofa-p-1-edm.cybera.ca",
         "canarie-edmonton", True),
        ("ualberta-core", R, A["ualberta"], "129.128.0.10", "core1-sc.backbone.ualberta.ca",
         "ualberta", True),
        ("ualberta-agg", R, A["ualberta"], "172.26.244.22", "172.26.244.22", "ualberta", True),
        ("ualberta-hidden", M, A["ualberta"], "172.26.244.1", "172.26.244.1", "ualberta", False),
        ("ualberta-fw", M, A["ualberta"], "129.128.184.254", "ww-fw.cs.ualberta.ca",
         "ualberta", True),
        ("ualberta-dtn", H, A["ualberta"], "129.128.184.10", "dtn.cs.ualberta.ca",
         "ualberta", True),
        # -- Pacific Wave + Google ---------------------------------------------
        ("pacwave-sea", R, A["pacificwave"], "207.231.242.20",
         "google-1-lo-std-707.sttlwa.pacificwave.net", "pacificwave-seattle", True),
        ("google-peer-vncv", M, A["google"], "72.14.196.1", "72.14.196.1",
         "canarie-vancouver", False),
        ("google-edge-sea", R, A["google"], "209.85.249.32", "209.85.249.32",
         "pacificwave-seattle", True),
        ("google-edge-west", R, A["google"], "209.85.250.60", "209.85.250.60",
         "commodity-west", True),
        ("google-core", R, A["google"], "216.239.51.159", "216.239.51.159",
         "gdrive-dc", True),
        ("gdrive-frontend", H, A["google"], "216.58.216.138", "sea15s01-in-f138.1e100.net",
         "gdrive-dc", True),
        # -- Internet2 -------------------------------------------------------
        ("i2-seattle", R, A["internet2"], "64.57.28.58", "core1.seat.net.internet2.edu",
         "pacificwave-seattle", True),
        ("i2-chicago", R, A["internet2"], "64.57.28.10", "core1.chic.net.internet2.edu",
         "internet2-chicago", True),
        # -- UMich (Ann Arbor) ---------------------------------------------------
        ("umich-border", R, A["umich"], "192.122.183.1", "v-bin-seb.merit-aa2.umich.edu",
         "umich", True),
        ("umich-pl", H, A["umich"], "141.213.4.201", "planetlab1.eecs.umich.edu",
         "umich", True),
        # -- Purdue (West Lafayette) ---------------------------------------------
        ("purdue-border", R, A["purdue"], "128.210.0.1", "tel-210-c9010.tcom.purdue.edu",
         "purdue", True),
        ("purdue-pl", H, A["purdue"], "128.10.18.53", "planetlab1.cs.purdue.edu",
         "purdue", True),
        # -- UCLA (Los Angeles) ----------------------------------------------------
        ("ucla-border", R, A["ucla"], "169.232.0.1", "border.ucla.edu", "ucla", True),
        ("ucla-pl", H, A["ucla"], "131.179.150.72", "planetlab1.cs.ucla.edu", "ucla", True),
        # -- TransitA (commodity, serves Purdue) ------------------------------------
        ("transita-chi", R, A["transit-a"], "12.122.86.1", "cr1.cgcil.ip.transit-a.net",
         "internet2-chicago", True),
        ("transita-dc", R, A["transit-a"], "12.122.100.1", "cr1.wswdc.ip.transit-a.net",
         "commodity-east", True),
        ("transita-sf", R, A["transit-a"], "12.122.110.1", "cr1.sffca.ip.transit-a.net",
         "commodity-west", True),
        # -- TransitB (commodity, serves UCLA) ---------------------------------------
        ("transitb-la", R, A["transit-b"], "4.69.144.1", "edge1.LosAngeles1.transit-b.net",
         "ucla", True),
        ("transitb-sf", R, A["transit-b"], "4.69.148.1", "edge1.SanFrancisco1.transit-b.net",
         "commodity-west", True),
        # -- Dropbox (Ashburn) -----------------------------------------------------
        ("dropbox-edge", R, A["dropbox"], "108.160.160.1", "edge1.iad.dropbox.com",
         "dropbox-dc", True),
        ("dropbox-frontend", H, A["dropbox"], "108.160.166.62", "dl-web.dropbox.com",
         "dropbox-dc", True),
        # -- Microsoft (Seattle) -------------------------------------------------
        ("msft-edge-sea", R, A["microsoft"], "104.44.4.1", "ae24-0.icr01.mwh01.ntwk.msn.net",
         "onedrive-dc", True),
        ("onedrive-frontend", H, A["microsoft"], "134.170.108.26", "storage.live.com",
         "onedrive-dc", True),
    ]


def _links(p: CaseStudyParams):
    """(u, v, capacity_bps, one-way delay, loss, policer dict) tuples."""
    return [
        # UBC campus chain
        ("ubc-pl", "ubc-campus", p.ubc_access_bps, ms(0.2), 0.0, None),
        ("ubc-campus", "ubc-border", p.campus_bps, ms(0.1), 0.0, None),
        ("ubc-border", "bcnet-van", p.campus_bps, ms(0.3), 0.0, None),
        ("bcnet-van", "canarie-vncv", p.backbone_bps, ms(0.5), 0.0, None),
        # CANARIE backbone + UAlberta chain
        ("canarie-vncv", "canarie-edmn", p.backbone_bps, ms(6.5), 0.0, None),
        ("canarie-edmn", "cybera-edm", p.campus_bps, ms(0.3), 0.0, None),
        ("cybera-edm", "ualberta-core", p.campus_bps, ms(0.5), 0.0, None),
        ("ualberta-core", "ualberta-agg", p.campus_bps, ms(0.1), 0.0, None),
        ("ualberta-agg", "ualberta-hidden", p.campus_bps, ms(0.1), 0.0, None),
        ("ualberta-hidden", "ualberta-fw", p.campus_bps, ms(0.1), 0.0, None),
        ("ualberta-fw", "ualberta-dtn", p.ualberta_access_bps, ms(0.1), 0.0, None),
        # CANARIE egresses
        ("canarie-vncv", "google-peer-vncv", p.canarie_google_bps, ms(2.5), 0.0, None),
        ("canarie-vncv", "pacwave-sea", p.backbone_bps, ms(2.5), 0.0, None),
        ("pacwave-sea", "google-edge-sea", p.backbone_bps, ms(0.5), 0.0,
         {"pacwave-sea": p.pacificwave_policer_bps}),
        ("canarie-vncv", "i2-seattle", p.canarie_i2_bps, ms(2.5), 0.0, None),
        ("canarie-vncv", "dropbox-edge", p.canarie_dropbox_bps, ms(30), 0.0, None),
        ("canarie-vncv", "msft-edge-sea", p.canarie_microsoft_bps, ms(2.5), 0.0, None),
        # Google internals
        ("google-peer-vncv", "google-edge-sea", p.datacenter_bps, ms(1.5), 0.0, None),
        ("google-edge-sea", "google-core", p.datacenter_bps, ms(1.0), 0.0, None),
        ("google-edge-west", "google-core", p.datacenter_bps, ms(1.0), 0.0, None),
        ("google-core", "gdrive-frontend", p.datacenter_bps, ms(8.5), 0.0, None),
        # Internet2
        ("i2-seattle", "i2-chicago", p.backbone_bps, ms(18), 0.0, None),
        ("i2-chicago", "umich-border", p.campus_bps, ms(3.5), 0.0, None),
        ("umich-border", "umich-pl", p.umich_access_bps, ms(0.2), 0.0, None),
        ("i2-seattle", "google-edge-sea", p.i2_google_bps, ms(0.5), 0.0, None),
        ("i2-seattle", "msft-edge-sea", p.i2_microsoft_bps, ms(0.5), 0.0, None),
        ("i2-chicago", "dropbox-edge", p.i2_dropbox_bps, ms(6), 0.0, None),
        # Purdue
        ("purdue-pl", "purdue-border", p.purdue_access_bps, ms(0.2), 0.0, None),
        ("purdue-border", "i2-chicago", p.campus_bps, ms(1.5), 0.0, None),
        ("purdue-border", "transita-chi", p.campus_bps, ms(1.5), 0.0, None),
        # TransitA
        ("transita-chi", "transita-sf", p.backbone_bps, ms(16), 0.0, None),
        ("transita-chi", "transita-dc", p.backbone_bps, ms(9), 0.0, None),
        ("transita-sf", "google-edge-west", p.transita_google_bps, ms(0.5), 0.0, None),
        ("transita-sf", "msft-edge-sea", p.transita_microsoft_bps, ms(8.5), 0.0, None),
        ("transita-dc", "dropbox-edge", p.transita_dropbox_bps, ms(0.5), 0.0, None),
        # UCLA + TransitB
        ("ucla-pl", "ucla-border", p.ucla_access_bps, ms(0.2), 0.0, None),
        ("ucla-border", "transitb-la", p.campus_bps, ms(0.5), 0.0, None),
        ("ucla-border", "i2-seattle", p.campus_bps, ms(9), 0.0, None),
        ("transitb-la", "transitb-sf", p.backbone_bps, ms(3), 0.0, None),
        ("transitb-sf", "google-edge-west", p.transitb_peering_bps, ms(0.5), 0.0, None),
        ("transitb-la", "dropbox-edge", p.transitb_peering_bps, ms(28), 0.0, None),
        ("transitb-sf", "msft-edge-sea", p.transitb_peering_bps, ms(8.5), 0.0, None),
        # datacenter tails
        ("dropbox-edge", "dropbox-frontend", p.datacenter_bps, ms(0.5), 0.0, None),
        ("msft-edge-sea", "onedrive-frontend", p.datacenter_bps, ms(0.3), 0.0, None),
    ]

#: Links that carry the congested-interconnect jitter profile.
_CONGESTED_LINKS = {
    "transita-sf--google-edge-west",
    "transita-sf--msft-edge-sea",
}


def _as_relationships():
    """(customer pairs, peering pairs) in canonical build order."""
    A = AS_NUMBERS
    customers = (
        (A["canarie"], A["bcnet"]),
        (A["bcnet"], A["ubc"]),
        (A["canarie"], A["cybera"]),
        (A["cybera"], A["ualberta"]),
        (A["internet2"], A["umich"]),
        (A["internet2"], A["purdue"]),
        (A["internet2"], A["ucla"]),
        (A["transit-a"], A["purdue"]),
        (A["transit-b"], A["ucla"]),
    )
    peerings = (
        (A["canarie"], A["internet2"]),
        (A["canarie"], A["pacificwave"]),
        (A["pacificwave"], A["google"]),
        (A["canarie"], A["google"]),
        (A["canarie"], A["microsoft"]),
        (A["canarie"], A["dropbox"]),
        (A["internet2"], A["google"]),
        (A["internet2"], A["microsoft"]),
        (A["internet2"], A["dropbox"]),
        (A["transit-a"], A["google"]),
        (A["transit-a"], A["microsoft"]),
        (A["transit-a"], A["dropbox"]),
        (A["transit-b"], A["google"]),
        (A["transit-b"], A["microsoft"]),
        (A["transit-b"], A["dropbox"]),
    )
    return customers, peerings


def case_study_topo_spec(params: Optional[CaseStudyParams] = None) -> TopoSpec:
    """The calibrated 5-site world as an explicit :class:`TopoSpec`.

    This is the testbed's source of truth: :func:`build_case_study` runs
    it through the same :func:`~repro.topo.materialize.compile_spec` /
    :func:`~repro.topo.materialize.materialize` pipeline as generated
    internet-scale worlds, so the paper world and synthetic worlds are
    byte-for-byte products of one construction path.
    """
    p = params if params is not None else DEFAULT_PARAMS

    nodes = tuple(
        NodeRec(name, kind.value, asn, addr, hostname=hostname, site=site_name,
                responds=responds)
        for name, kind, asn, addr, hostname, site_name, responds in _nodes(p))
    links = tuple(
        LinkRec(u, v, capacity_bps=cap, delay_s=delay, loss=loss,
                policers=tuple(sorted((policer or {}).items())),
                jitter_sigma=(p.congested_capacity_jitter_sigma
                              if f"{u}--{v}" in _CONGESTED_LINKS
                              else p.capacity_jitter_sigma))
        for u, v, cap, delay, loss, policer in _links(p))

    A = AS_NUMBERS
    ases = tuple(AsRec(number, name) for name, number in A.items())
    customers, peerings = _as_relationships()

    # TR-CPS style scoping: Internet2 carries commercial peering routes
    # only for subscribers.  UMich subscribes; Purdue and UCLA do not, so
    # their commercial traffic falls back to commodity transit — exactly
    # the asymmetry the paper measured from Purdue.
    commercial = tuple(sorted((A["google"], A["microsoft"], A["dropbox"])))
    export_deny = (
        (A["internet2"], A["purdue"], commercial),
        (A["internet2"], A["ucla"], commercial),
    )

    pbr_rules = (PbrRec(
        node="canarie-vncv",
        out_link="canarie-vncv--pacwave-sea",
        src_prefixes=(UBC_PLANETLAB_PREFIX,),
        dest_asns=(A["google"],),
        description="PlanetLab-sourced Google traffic exits via Pacific Wave "
                    "(the Fig. 5 vs Fig. 6 artifact)",
    ),)

    providers = (
        ProviderRec("gdrive", "Google Drive", "www.googleapis.com",
                    "accounts.google.com", ("gdrive-frontend",), "gdrive"),
        ProviderRec("dropbox", "Dropbox", "content.dropboxapi.com",
                    "api.dropboxapi.com", ("dropbox-frontend",), "dropbox"),
        ProviderRec("onedrive", "Microsoft OneDrive", "storage.live.com",
                    "login.live.com", ("onedrive-frontend",), "onedrive"),
    )

    graph = TopoGraph(
        sites=site_records(nodes), ases=ases, nodes=nodes, links=links,
        customers=customers, peerings=peerings, export_deny=export_deny,
        pbr_rules=pbr_rules, providers=providers,
        hosts=(("ubc", "ubc-pl"), ("purdue", "purdue-pl"),
               ("ucla", "ucla-pl"), ("umich", "umich-pl"),
               ("ualberta", "ualberta-dtn")),
        dtn_sites=("ualberta", "umich"),
    )
    return TopoSpec(name="case-study", source="explicit", graph=graph)


#: In-process memo of compiled case-study topologies by spec hash: route
#: compilation is seed-independent, so every world built from the same
#: params shares one compiled artifact (compiled arrays are never
#: mutated by materialization).
_COMPILED_CACHE: Dict[str, CompiledTopology] = {}


def _compiled_case_study(params: CaseStudyParams,
                         cache_dir: Optional[str] = None) -> CompiledTopology:
    spec = case_study_topo_spec(params)
    key = spec.content_hash()
    compiled = _COMPILED_CACHE.get(key)
    if compiled is None:
        compiled = compile_spec(spec, cache_dir=cache_dir, routes=True)
        _COMPILED_CACHE[key] = compiled  # simlint: ignore[SL1001] -- per-process memo; content is keyed by spec hash, so copies never diverge
    return compiled


def _cross_traffic_configs(p: CaseStudyParams):
    return [
        CrossTrafficConfig("transita-sf--google-edge-west", "transita-sf",
                           utilization=p.transita_google_mice_utilization,
                           mean_flow_bytes=4e6,
                           elephant_rate_bps=p.transita_google_elephant_bps,
                           elephant_on_s=p.transita_google_elephant_on_s,
                           elephant_off_s=p.transita_google_elephant_off_s,
                           elephant_flows=p.transita_google_elephant_flows),
        CrossTrafficConfig("transita-sf--msft-edge-sea", "transita-sf",
                           utilization=p.transita_microsoft_mice_utilization,
                           mean_flow_bytes=4e6,
                           elephant_rate_bps=p.transita_microsoft_elephant_bps,
                           elephant_on_s=p.transita_microsoft_elephant_on_s,
                           elephant_off_s=p.transita_microsoft_elephant_off_s,
                           elephant_flows=p.transita_microsoft_elephant_flows),
        CrossTrafficConfig("purdue-pl--purdue-border", "purdue-pl",
                           utilization=p.purdue_uplink_utilization,
                           mean_flow_bytes=p.purdue_uplink_mean_flow_bytes),
        CrossTrafficConfig("ucla-pl--ucla-border", "ucla-pl",
                           utilization=p.ucla_uplink_utilization,
                           mean_flow_bytes=p.ucla_uplink_mean_flow_bytes),
        CrossTrafficConfig("canarie-vncv--i2-seattle", "canarie-vncv",
                           utilization=p.canarie_i2_utilization,
                           mean_flow_bytes=4e6),
        CrossTrafficConfig("transita-dc--dropbox-edge", "transita-dc",
                           utilization=p.transita_dropbox_utilization,
                           mean_flow_bytes=4e6),
    ]


def build_case_study(
    seed: int = 0,
    params: Optional[CaseStudyParams] = None,
    trace: bool = False,
    cross_traffic: bool = True,
    metrics: Union[bool, MetricsRegistry] = False,
    profile: Union[bool, KernelProfiler] = False,
    cache_dir: Optional[str] = None,
) -> World:
    """Construct the full case-study world.

    The spec from :func:`case_study_topo_spec` is compiled (routes
    precomputed, memoized in-process per parameter set) and materialized
    through :mod:`repro.topo` — the same pipeline that builds generated
    internet-scale worlds.

    Parameters
    ----------
    seed:
        Master seed; drives cross-traffic, server-time jitter, and the
        per-run capacity jitter.  Same seed => identical world behaviour.
    params:
        Calibration overrides (ablations).
    trace:
        Enable the structured event tracer (off for benchmarks).
    cross_traffic:
        Disable to get a noise-free world (useful in tests).
    metrics:
        True to enable the metrics registry, or an existing
        :class:`~repro.obs.MetricsRegistry` to share one across worlds
        (e.g. the report harness aggregating many cells).
    profile:
        True to attach a fresh :class:`~repro.obs.KernelProfiler` to the
        kernel, or an existing profiler to aggregate across worlds
        (wall-time accounting; has no effect on simulated results).
    cache_dir:
        Optional route-cache directory handed to
        :func:`~repro.topo.materialize.compile_spec`.
    """
    p = params if params is not None else DEFAULT_PARAMS
    compiled = _compiled_case_study(p, cache_dir=cache_dir)
    world = materialize(compiled, seed=seed, trace=trace, metrics=metrics,
                        profile=profile)
    if cross_traffic:
        start_sources(_cross_traffic_configs(p), world.sim, world.engine,
                      world.rng.stream)
    return world


def world_factory(
    params: Optional[CaseStudyParams] = None,
    trace: bool = False,
    cross_traffic: bool = True,
    metrics: Union[bool, MetricsRegistry] = False,
    profile: Union[bool, KernelProfiler] = False,
) -> Callable[[int], World]:
    """A seed -> World callable for the measurement harness.

    Passing a shared :class:`~repro.obs.MetricsRegistry` as *metrics*
    aggregates every produced world's metrics into one registry.
    """

    def make(seed: int) -> World:
        return build_case_study(seed=seed, params=params, trace=trace,
                                cross_traffic=cross_traffic, metrics=metrics,
                                profile=profile)

    return make


def build_geo_registry(topology: Optional[Topology] = None) -> GeoRegistry:
    """The 'IP Location Finder' database for the case-study address space."""
    reg = GeoRegistry()
    entries = [
        ("142.103.0.0/16", "ubc"),
        ("137.82.0.0/16", "ubc"),
        ("134.87.0.0/16", "canarie-vancouver"),
        ("199.212.24.0/26", "canarie-vancouver"),
        ("199.212.24.64/26", "canarie-edmonton"),
        ("199.116.233.0/24", "canarie-edmonton"),
        ("129.128.0.0/16", "ualberta"),
        ("172.26.244.0/24", "ualberta"),
        ("207.231.242.0/24", "pacificwave-seattle"),
        ("72.14.196.0/24", "canarie-vancouver"),
        ("209.85.249.0/24", "pacificwave-seattle"),
        ("209.85.250.0/24", "commodity-west"),
        # The paper geolocates the Drive server to Mountain View [7].
        ("216.58.216.0/24", "gdrive-dc"),
        ("216.239.51.0/24", "gdrive-dc"),
        ("64.57.28.0/24", "internet2-chicago"),
        ("192.122.183.0/24", "umich"),
        ("141.213.0.0/16", "umich"),
        ("128.210.0.0/16", "purdue"),
        ("128.10.0.0/16", "purdue"),
        ("169.232.0.0/16", "ucla"),
        ("131.179.0.0/16", "ucla"),
        ("12.122.86.0/24", "internet2-chicago"),
        ("12.122.100.0/24", "commodity-east"),
        ("12.122.110.0/24", "commodity-west"),
        ("4.69.144.0/24", "ucla"),
        ("4.69.148.0/24", "commodity-west"),
        ("108.160.160.0/19", "dropbox-dc"),
        ("104.44.4.0/24", "onedrive-dc"),
        ("134.170.0.0/16", "onedrive-dc"),
    ]
    for prefix, site_key in entries:
        reg.register(prefix, site(site_key))
    return reg
