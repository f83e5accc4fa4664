"""Compile specs into route-compiled worlds; materialize them for runs.

Two halves:

* :func:`compile_spec` — spec → :class:`~repro.topo.compiled.CompiledTopology`:
  expand (or take) the graph, flatten to arrays, then resolve the
  standard route set (every host to every provider frontend, every
  client host to every DTN host) over a *skeleton* world — topology, AS
  graph and PBR only, no simulator.  Routes are served from the
  content-addressed :class:`~repro.topo.routecache.RouteCache` when a
  ``cache_dir`` is given; route resolution depends only on the spec
  (capacity jitter is applied per seed at materialize time and never
  changes hop sequences), so a warm cache skips the expensive phase
  entirely.

* :func:`materialize` — compiled → :class:`~repro.core.world.World`:
  rebuild the live objects in array order (order is semantic: IGP
  tie-breaks follow adjacency insertion), seed the router's path cache
  from the precompiled routes, wire providers/hosts/DTNs, and apply the
  per-seed capacity jitter streams (``capjitter.<link>``).

The calibrated case study (:mod:`repro.testbed.build`) and user-built
worlds (:class:`repro.testbed.WorldBuilder`) flow through the same two
functions, so one construction path serves the 5-site paper world,
user scenarios and generated 10^3–10^4-site worlds.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.cloud.dropbox import make_dropbox_protocol
from repro.cloud.gdrive import make_gdrive_protocol
from repro.cloud.onedrive import make_onedrive_protocol
from repro.cloud.provider import CloudProvider
from repro.core.world import World
from repro.errors import RoutingError, TopoError, TopologyError
from repro.geo.coords import GeoPoint
from repro.geo.sites import SITES, Site, SiteKind, register_site
from repro.net.asn import ASGraph, AutonomousSystem
from repro.net.dns import DnsResolver
from repro.net.engine import NetworkEngine
from repro.net.policy import PbrRule, PolicyTable
from repro.net.routing import Router
from repro.net.tcp import TcpModel
from repro.net.topology import Link, Node, NodeKind, Topology
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import KernelProfiler
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer
from repro.topo.compiled import CompiledTopology, compile_graph
from repro.topo.instrument import TopoInstrumentation
from repro.topo.routecache import RouteCache
from repro.topo.spec import NodeRec, SiteRec, TopoGraph, TopoSpec
from repro.topo.synth import generate

__all__ = ["build_skeleton", "compile_spec", "materialize", "site_records"]

#: Upload-protocol factories reachable from serialized provider records.
_PROTOCOL_FACTORIES = {
    "gdrive": make_gdrive_protocol,
    "dropbox": make_dropbox_protocol,
    "onedrive": make_onedrive_protocol,
}


def site_records(nodes: Iterable[NodeRec]) -> Tuple[SiteRec, ...]:
    """Records of the registered sites *nodes* reference, in first-reference order."""
    keys = dict.fromkeys(n.site for n in nodes if n.site)
    unknown = [key for key in keys if key not in SITES]
    if unknown:
        raise TopologyError(f"unregistered sites {unknown}; register them first")
    return tuple(
        SiteRec(s.name, s.kind.value, s.location.lat, s.location.lon,
                s.city, s.description, s.planetlab)
        for s in (SITES[key] for key in keys))


def _register_sites(graph: TopoGraph) -> None:
    for s in graph.sites:
        try:
            kind = SiteKind(s.kind)
        except ValueError:
            raise TopoError(f"site {s.name!r}: unknown kind {s.kind!r}") from None
        register_site(Site(s.name, kind, GeoPoint(s.lat, s.lon), s.city,
                           description=s.description, planetlab=s.planetlab))


def build_skeleton(graph: TopoGraph) -> Tuple[Topology, ASGraph, PolicyTable]:
    """Topology + AS graph + PBR from graph records (no simulator).

    Registers the graph's sites in the global registry (idempotent) and
    adds nodes/links in record order — the order the compiled arrays
    preserve — so tie-breaks reproduce byte-identically.
    """
    _register_sites(graph)
    topo = Topology()
    for n in graph.nodes:
        try:
            kind = NodeKind(n.kind)
        except ValueError:
            raise TopoError(f"node {n.name!r}: unknown kind {n.kind!r}") from None
        topo.add_node(Node(n.name, kind, n.asn, n.address,
                           hostname=n.hostname, site_name=n.site,
                           responds_to_traceroute=n.responds,
                           firewall_per_flow_bps=n.firewall_per_flow_bps))
    for l in graph.links:
        topo.add_link(Link(l.u, l.v, capacity_bps=l.capacity_bps,
                           delay_s=l.delay_s, loss=l.loss,
                           policer_bps=dict(l.policers), igp_cost=l.igp_cost))
    topo.validate()

    as_graph = ASGraph()
    for a in graph.ases:
        as_graph.add_as(AutonomousSystem(a.asn, a.name, description=a.tier))
    for provider_asn, customer_asn in graph.customers:
        as_graph.add_customer(provider_asn, customer_asn)
    for a, b in graph.peerings:
        as_graph.add_peering(a, b)
    for announcer, neighbor, deny in graph.export_deny:
        as_graph.set_export_deny(announcer, neighbor, deny)
    as_graph.validate()

    policy = PolicyTable()
    for r in graph.pbr_rules:
        policy.install(PbrRule(node=r.node, out_link=r.out_link,
                               src_prefixes=frozenset(r.src_prefixes),
                               dest_asns=frozenset(r.dest_asns),
                               description=r.description))
    return topo, as_graph, policy


def _route_pairs(graph: TopoGraph) -> List[Tuple[str, str]]:
    """The standard precompiled route set, in deterministic order.

    Every world host (clients *and* DTNs) to every provider frontend —
    the upload paths — plus every client host to every DTN host — the
    detour first legs.  Reverse paths resolve on demand (the transfer
    models derive RTT from the forward path).
    """
    frontends = [f for p in graph.providers for f in p.frontends]
    dtn_sites = set(graph.dtn_sites)
    dtn_hosts = [host for site, host in graph.hosts if site in dtn_sites]
    pairs: List[Tuple[str, str]] = []
    for _, host in graph.hosts:
        for fe in frontends:
            pairs.append((host, fe))
    for site, host in graph.hosts:
        if site in dtn_sites:
            continue
        for dtn in dtn_hosts:
            if dtn != host:
                pairs.append((host, dtn))
    return pairs


def _compute_routes(graph: TopoGraph,
                    compiled: CompiledTopology) -> List[List[int]]:
    """Resolve the standard route set over a skeleton world."""
    topo, as_graph, policy = build_skeleton(graph)
    router = Router(topo, as_graph, policy)
    node_idx = {n.name: i for i, n in enumerate(graph.nodes)}
    paths: List[List[int]] = []
    for src, dst in _route_pairs(graph):
        try:
            resolved = router.resolve(src, dst)
        except (RoutingError, TopologyError):
            # disconnected pair (possible in ingested snapshots, or a
            # destination unreachable inside its own AS); materialized
            # worlds fall back to on-demand resolution
            continue
        paths.append([node_idx[name] for name in resolved.nodes])
    return paths


#: In-process memo for :func:`compile_spec`: (content hash, routes flag)
#: -> compiled topology.  A sharded fleet materializes one world per
#: site unit from the same spec; compiled topologies are read-only after
#: compilation, so units in the same process can share one instance and
#: skip recompilation.  Only dirless compiles are memoized: with a
#: ``cache_dir`` the on-disk ``routes-*.npz`` is the fast path and must
#: stay authoritative (it is written, validated, and self-healed on
#: every call).  Small and bounded — campaigns rarely juggle more than
#: a couple of worlds at once.
_COMPILE_MEMO: "OrderedDict[Tuple[str, bool], CompiledTopology]" = OrderedDict()
_COMPILE_MEMO_MAX = 8


def compile_spec(spec: TopoSpec,
                 cache_dir: Optional[str] = None,
                 routes: bool = True,
                 instrumentation: Optional[TopoInstrumentation] = None,
                 ) -> CompiledTopology:
    """Spec → compiled arrays (+ precompiled routes, cached on disk).

    Repeat dirless calls for the same spec in one process are served
    from an in-process memo (skipped when *instrumentation* is given, so
    an instrumented compile always records its real phases, and when a
    *cache_dir* is given, so the disk artifact stays authoritative).
    """
    memo_key = (spec.content_hash(), routes)
    use_memo = instrumentation is None and cache_dir is None
    if use_memo:
        hit = _COMPILE_MEMO.get(memo_key)
        if hit is not None:
            _COMPILE_MEMO.move_to_end(memo_key)
            return hit
    obs = instrumentation if instrumentation is not None else TopoInstrumentation()
    with obs.phase("generate"):
        graph = generate(spec)
    key = spec.content_hash()
    with obs.phase("arrays"):
        compiled = compile_graph(graph, spec.name, spec.source, key, spec.tag)
    if routes:
        cache = RouteCache(cache_dir, obs) if cache_dir else None
        cached = cache.load(key) if cache is not None else None
        if cached is not None:
            with obs.phase("routes_cached"):
                indptr, flat = cached
                compiled.arrays["route_indptr"] = indptr
                compiled.arrays["route_node"] = flat
                compiled.meta["routes"] = int(indptr.shape[0]) - 1
        else:
            with obs.phase("routes"):
                compiled.attach_routes(_compute_routes(graph, compiled))
            if cache is not None:
                cache.store(key, compiled.arrays["route_indptr"],
                            compiled.arrays["route_node"])
    obs.record_shape(compiled.n_sites, compiled.n_nodes, compiled.n_links,
                     compiled.n_routes)
    if use_memo:
        _COMPILE_MEMO[memo_key] = compiled  # simlint: ignore[SL1001] -- per-process memo; content is keyed by spec hash, so copies never diverge
        _COMPILE_MEMO.move_to_end(memo_key)
        while len(_COMPILE_MEMO) > _COMPILE_MEMO_MAX:
            _COMPILE_MEMO.popitem(last=False)  # simlint: ignore[SL1001] -- eviction on the per-process memo above
    return compiled


def materialize(compiled: CompiledTopology,
                seed: int = 0,
                trace: bool = False,
                metrics: Union[bool, MetricsRegistry] = False,
                profile: Union[bool, KernelProfiler] = False,
                instrumentation: Optional[TopoInstrumentation] = None,
                ) -> World:
    """Compiled topology → a live :class:`~repro.core.world.World`.

    Objects are created in record order and each link's capacity is
    scaled by its own ``capjitter.<link>`` stream, so the same compiled
    topology and seed always give a byte-identical world.
    """
    obs = instrumentation if instrumentation is not None else TopoInstrumentation()
    if isinstance(metrics, MetricsRegistry):
        registry = metrics
    else:
        registry = MetricsRegistry(enabled=bool(metrics))
    if isinstance(profile, KernelProfiler):
        profiler = profile
    else:
        profiler = KernelProfiler() if profile else None

    with obs.phase("materialize"):
        graph = compiled.to_graph()
        sim = Simulator(profiler=profiler)
        rng = RngRegistry(seed)
        tracer = Tracer(enabled=trace)

        topo, as_graph, policy = build_skeleton(graph)
        router = Router(topo, as_graph, policy)
        router.preload(compiled.route_name_paths())
        dns = DnsResolver(topo)

        capacity_scale: Dict[str, float] = {}
        for link in graph.links:
            capacity_scale[link.name] = rng.lognormal_factor(
                f"capjitter.{link.name}", link.jitter_sigma)

        engine = NetworkEngine(sim, topo, tracer=tracer,
                               capacity_scale=capacity_scale, metrics=registry)
        world = World(
            sim=sim, topology=topo, as_graph=as_graph, policy=policy,
            router=router, dns=dns, engine=engine,
            tcp=TcpModel(metrics=registry), rng=rng, tracer=tracer,
            seed=seed, metrics=registry, profiler=profiler,
        )

        for p in graph.providers:
            factory = _PROTOCOL_FACTORIES.get(p.protocol)
            if factory is None:
                known = ", ".join(sorted(_PROTOCOL_FACTORIES))
                raise TopoError(
                    f"provider {p.name!r}: unknown protocol {p.protocol!r} "
                    f"(known: {known})")
            world.add_provider(CloudProvider(
                name=p.name, display_name=p.display_name,
                api_hostname=p.api_hostname, auth_hostname=p.auth_hostname,
                frontend_nodes=list(p.frontends), protocol=factory(),
            ))

        hosts = dict(graph.hosts)
        world.hosts.update(hosts)
        for site in graph.dtn_sites:
            if site not in hosts:
                raise TopoError(f"DTN site {site!r} has no host mapping")
            world.add_dtn(site, hosts[site])
    return world
