"""Shard planning: a fleet workload split into deterministic cells.

A :class:`ShardPlan` names a whole fleet — sites, policies, workload
shape, seed, optionally a generated world — and partitions the sites
into ``n_shards`` buckets by **stable hash**: a site lands in shard
``derive_seed(seed, "shard:<site>") % n_shards`` (the same sha256
derivation :class:`~repro.sim.rng.RngRegistry` streams use), so the
partition depends only on the plan, never on job count, enumeration
order, or which shards have already run.

Each (non-empty shard, policy) pair becomes a :class:`ShardCell` — a
campaign cell (content-addressed identity, ``run_measurement``) the
:mod:`repro.campaign` pool executes and the result store resumes.  A
cell runs its sites as **independent single-site fleet units**: each
site gets its own world (seeded from the site workload, excluding both
the policy and the partition) and its own single-site schedule (which
:func:`~repro.workloads.generator.fleet_population_schedule` derives
per-site, so it equals that site's slice of the full-fleet schedule).
That independence is the sharding determinism contract: a site's
numbers are identical whether it ran alone, in a 4-shard run, or in a
single shard holding the whole fleet — which is what makes ``shards=4``
byte-identical to ``shards=1`` after the merge.

Broker-kind cells can carry a warm :class:`~repro.broker.directory.DirectorySnapshot`
(identity records only its content hash, so store records stay small)
and publish per-site :class:`~repro.shard.service.SiteReport` documents
— stats plus the unit's final directory — to the shared file tier under
partition-independent names.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.broker.campaign import workload_fields, workload_identity
from repro.broker.config import BrokerConfig
from repro.broker.directory import DirectorySnapshot
from repro.broker.fleet import FleetResult, fleet_world, parse_mode
from repro.campaign.store import register_cell_type
from repro.core.identity import content_key
from repro.errors import CampaignError, ShardError
from repro.measure.harness import (ExperimentProtocol, Measurement,
                                   experiment_seed)
from repro.measure.stats import summarize
from repro.obs.metrics import MetricSample, MetricsRegistry
from repro.sim.rng import derive_seed
from repro.topo.spec import TopoSpec

from repro.shard.service import DirectoryFileTier, SiteReport

__all__ = ["ShardPlan", "ShardCell", "site_report_name"]

SHARD_CELL_TYPE = "shard-fleet"

#: Bump when a change to the shard execution path invalidates stored cells.
SHARD_CELL_VERSION = 1


def _site_unit_identity(
    site: str,
    provider: str,
    mode: str,
    n_uploads_per_site: int,
    mean_interarrival_s: float,
    mean_size_mb: float,
    size_dist: str,
    seed: int,
    cross_traffic: bool,
    config: Optional[BrokerConfig],
    topo: Optional[TopoSpec],
    warm_hash: str,
) -> Dict[str, object]:
    """The identity of one (site, policy) fleet unit.

    Deliberately partition-free: no shard index, no shard count, no
    sibling sites — so the unit's published report name is the same for
    every sharding of the same plan.
    """
    ident: Dict[str, object] = {
        "unit": "shard-site",
        "version": SHARD_CELL_VERSION,
        "site": site,
        "provider": provider,
        "mode": mode,
        "n_uploads_per_site": int(n_uploads_per_site),
        "mean_interarrival_s": float(mean_interarrival_s),
        "mean_size_mb": float(mean_size_mb),
        "size_dist": size_dist,
        "seed": int(seed),
        "cross_traffic": bool(cross_traffic),
        "config": None if config is None else asdict(config),
        "warm_hash": warm_hash,
    }
    if topo is not None:
        ident["topo"] = topo.content_hash()
    return ident


def site_report_name(**unit_kwargs) -> str:
    """Content name of one site unit's published report (``site-<hash>``)."""
    return "site-" + content_key(_site_unit_identity(**unit_kwargs), 24)


def _with_site_label(samples: Sequence[MetricSample],
                     site: str) -> List[MetricSample]:
    """Stamp a ``site`` label onto every sample that lacks one.

    Each single-site unit runs against its own registry, so after
    stamping, every (name, labels) series originates from exactly one
    unit — which is why merging units in any order yields the same
    aggregate registry.
    """
    out: List[MetricSample] = []
    pair = ("site", site)
    for s in samples:
        if any(k == "site" for k, _v in s.labels):
            out.append(s)
        else:
            out.append(replace(s, labels=tuple(sorted(s.labels + (pair,)))))
    return out


@dataclass(frozen=True)
class ShardCell:
    """One shard of the fleet under one policy, as a campaign cell."""

    sites: Tuple[str, ...]
    provider: str
    mode: str  # "direct" | "broker" | "static:<route>"
    n_uploads_per_site: int
    mean_interarrival_s: float
    mean_size_mb: float
    size_dist: str = "lognormal"
    seed: int = 0
    shard_index: int = 0
    n_shards: int = 1
    cross_traffic: bool = True
    config: Optional[BrokerConfig] = None
    topo: Optional[TopoSpec] = None
    #: content hash of the warm snapshot ("" = cold start); part of the
    #: identity so warm and cold runs never collide in the store
    warm_hash: str = ""
    #: the warm snapshot itself — carried to the worker, never stored
    warm: Optional[DirectorySnapshot] = field(default=None, compare=False)
    #: file-tier root the worker publishes site reports to (optional)
    publish_root: Optional[str] = field(default=None, compare=False)
    #: route-cache directory for generated worlds (optional)
    cache_dir: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.sites:
            raise ShardError("shard cell needs at least one site")
        if not 0 <= self.shard_index < self.n_shards:
            raise ShardError(
                f"shard index {self.shard_index} outside 0..{self.n_shards - 1}")
        parse_mode(self.mode)  # fail fast on unknown policies

    # -- campaign cell protocol --------------------------------------------

    @property
    def n_uploads(self) -> int:
        return self.n_uploads_per_site * len(self.sites)

    @property
    def label(self) -> str:
        world = ("" if self.topo is None
                 else f"@{self.topo.content_hash()[:12]}")
        warm = f" warm={self.warm_hash[:8]}" if self.warm_hash else ""
        return (f"shard {self.shard_index + 1}/{self.n_shards}{world} "
                f"{'+'.join(self.sites)}->{self.provider} "
                f"{self.n_uploads}x~{self.mean_size_mb:g}MB "
                f"{self.size_dist} [{self.mode}]{warm}")

    @property
    def protocol(self) -> ExperimentProtocol:
        """One 'run' per upload, nothing discarded (mirrors fleet cells)."""
        return ExperimentProtocol(total_runs=self.n_uploads, discard_runs=0,
                                  inter_run_gap_s=0.0)

    def identity(self) -> Dict[str, object]:
        return {"cell_type": SHARD_CELL_TYPE, "version": SHARD_CELL_VERSION,
                "mode": self.mode, "shard_index": int(self.shard_index),
                "n_shards": int(self.n_shards), "warm_hash": self.warm_hash,
                **workload_identity(self)}

    @property
    def key(self) -> str:
        return content_key(self.identity(), 24)

    @classmethod
    def from_identity(cls, ident: Dict[str, object]) -> "ShardCell":
        if ident.get("cell_type") != SHARD_CELL_TYPE:
            raise CampaignError(f"not a {SHARD_CELL_TYPE} identity: {ident!r}")
        version = ident.get("version")
        if version != SHARD_CELL_VERSION:
            raise CampaignError(
                f"shard cell identity version {version!r} is not the "
                f"supported {SHARD_CELL_VERSION}")
        return cls(mode=ident["mode"], shard_index=int(ident["shard_index"]),
                   n_shards=int(ident["n_shards"]),
                   warm_hash=ident["warm_hash"], **workload_fields(ident))

    def describe(self) -> str:
        return f"{self.label} seed={self.seed}"

    # -- execution ----------------------------------------------------------

    def site_workload_label(self, site: str) -> str:
        """The per-site world identity — shared by every policy and by
        every partitioning of the plan (mode and shard excluded)."""
        world = ("" if self.topo is None
                 else f"@{self.topo.content_hash()[:12]}")
        return (f"shardsite{world} {site}->{self.provider} "
                f"{self.n_uploads_per_site}x~{self.mean_size_mb:g}MB "
                f"{self.size_dist}")

    def site_world_seed(self, site: str) -> int:
        return experiment_seed(self.seed, self.site_workload_label(site))

    def site_report_name(self, site: str) -> str:
        return site_report_name(
            site=site, provider=self.provider, mode=self.mode,
            n_uploads_per_site=self.n_uploads_per_site,
            mean_interarrival_s=self.mean_interarrival_s,
            mean_size_mb=self.mean_size_mb, size_dist=self.size_dist,
            seed=self.seed, cross_traffic=self.cross_traffic,
            config=self.config, topo=self.topo, warm_hash=self.warm_hash)

    def _run_site(self, site: str):
        """One single-site fleet unit: ``(result, report)``."""
        from repro.broker.service import DetourBroker
        from repro.broker.fleet import FleetRunner
        from repro.workloads.generator import fleet_population_schedule

        kind, _static = parse_mode(self.mode)
        if kind == "broker" and self.warm_hash and self.warm is None:
            raise ShardError(
                f"shard cell {self.describe()!r} was planned against warm "
                f"snapshot {self.warm_hash} but carries no snapshot object; "
                f"re-expand the plan with ShardPlan.expand(warm=...)")
        site_metrics = MetricsRegistry()
        world = fleet_world(self.site_world_seed(site), topo=self.topo,
                            cross_traffic=self.cross_traffic,
                            metrics=site_metrics, cache_dir=self.cache_dir)
        if site not in world.hosts:
            raise ShardError(
                f"shard site {site!r} not in the world's host map "
                f"(world has {len(world.hosts)} hosts)")
        schedule = fleet_population_schedule(
            (site,), self.provider, self.n_uploads_per_site,
            self.mean_interarrival_s, self.mean_size_mb, seed=self.seed,
            size_dist=self.size_dist)
        broker = None
        if kind == "broker":
            broker = DetourBroker(world, pairs=[(site, self.provider)],
                                  config=self.config, warm=self.warm)
        result: FleetResult = FleetRunner(world, schedule, mode=self.mode,
                                          broker=broker).run()
        report = SiteReport(
            site=site,
            mode=self.mode,
            seed=self.seed,
            warm_hash=self.warm_hash,
            n_uploads=len(result.records),
            probes_issued=result.probes_issued,
            directory_hits=result.directory_hits,
            directory_misses=result.directory_misses,
            directory_evictions=result.directory_evictions,
            directory_warm_hits=(broker.directory.warm_hits
                                 if broker is not None else 0),
            invalidations=(broker.directory.invalidations
                           if broker is not None else 0),
            admission_spills=result.admission_spills,
            snapshot=(broker.directory.snapshot()
                      if broker is not None else None),
        )
        return result, report, site_metrics

    def run_measurement(self, metrics: Optional[MetricsRegistry] = None
                        ) -> Measurement:
        """Execute every site unit of this shard, in plan site order.

        Per-upload durations concatenate **site-major** (sites in cell
        order, uploads in schedule order within each site), so the
        merge can slice the stored measurement back into per-site
        streams.  Each unit's metric samples are stamped with its
        ``site`` label before merging into *metrics*, and its report is
        published to the file tier when ``publish_root`` is set.
        """
        tier = (DirectoryFileTier(self.publish_root)
                if self.publish_root is not None else None)
        durations: List[float] = []
        for site in self.sites:
            result, report, site_metrics = self._run_site(site)
            durations.extend(result.durations_s)
            if metrics is not None:
                metrics.merge_samples(
                    _with_site_label(site_metrics.collect(), site))
            if tier is not None:
                tier.publish(self.site_report_name(site), report.to_dict())
        return Measurement(label=self.label, all_durations_s=tuple(durations),
                           kept=summarize(durations), results=())


register_cell_type(SHARD_CELL_TYPE, ShardCell)


@dataclass(frozen=True)
class ShardPlan:
    """A fleet workload and its deterministic partition into shards."""

    sites: Tuple[str, ...]
    provider: str = "gdrive"
    modes: Tuple[str, ...] = ("direct", "broker")
    n_shards: int = 1
    n_uploads_per_site: int = 20
    mean_interarrival_s: float = 60.0
    mean_size_mb: float = 40.0
    size_dist: str = "lognormal"
    seed: int = 0
    cross_traffic: bool = True
    config: Optional[BrokerConfig] = None
    #: run the fleet on this (typically generated) world instead of the
    #: calibrated case study; referenced by content hash everywhere
    topo: Optional[TopoSpec] = None

    def __post_init__(self) -> None:
        if not self.sites:
            raise ShardError("shard plan needs at least one site")
        if len(set(self.sites)) != len(self.sites):
            raise ShardError(f"shard plan sites repeat: {list(self.sites)}")
        if not self.modes:
            raise ShardError("shard plan needs at least one mode")
        if self.n_shards < 1:
            raise ShardError(f"n_shards must be >= 1, got {self.n_shards}")
        for mode in self.modes:
            parse_mode(mode)

    # -- the partition ------------------------------------------------------

    def shard_of(self, site: str) -> int:
        """The shard *site* belongs to — a pure function of (seed, site).

        Derived through the same sha256 path as RngRegistry stream
        seeds, so the partition is stable across processes, platforms,
        and job counts; it never depends on the order sites are listed
        or on which shards have already executed.
        """
        return derive_seed(self.seed, f"shard:{site}") % self.n_shards

    def shards(self) -> Tuple[Tuple[str, ...], ...]:
        """Per-shard site tuples (plan site order within each shard)."""
        buckets: List[List[str]] = [[] for _ in range(self.n_shards)]
        for site in self.sites:
            buckets[self.shard_of(site)].append(site)
        return tuple(tuple(b) for b in buckets)

    # -- identity -----------------------------------------------------------

    def canonical_dict(self) -> Dict[str, object]:
        """JSON-able plan identity (round-trips via :meth:`from_dict`)."""
        return {"modes": list(self.modes), "n_shards": int(self.n_shards),
                **workload_identity(self)}

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "ShardPlan":
        try:
            fields = workload_fields(d)
        except CampaignError as exc:
            raise ShardError(f"shard plan: {exc}") from exc
        return cls(modes=tuple(d["modes"]), n_shards=int(d["n_shards"]),
                   **fields)

    @property
    def plan_key(self) -> str:
        return content_key(self.canonical_dict(), 24)

    @property
    def merged_snapshot_name(self) -> str:
        """Where :func:`~repro.shard.runner.merge_sharded` publishes the
        fleet's merged directory."""
        return f"merged-{self.plan_key}"

    @property
    def n_uploads(self) -> int:
        return self.n_uploads_per_site * len(self.sites)

    def describe(self) -> str:
        cells = sum(1 for s in self.shards() if s) * len(self.modes)
        world = ("" if self.topo is None
                 else f" @{self.topo.content_hash()[:12]}")
        return (f"sharded fleet{world} {len(self.sites)} site(s) -> "
                f"{self.provider}: {len(self.modes)} polic(ies) x "
                f"{self.n_shards} shard(s) = {cells} cells, "
                f"{self.n_uploads} uploads/policy")

    # -- expansion ----------------------------------------------------------

    def site_report_name(self, site: str, mode: str,
                         warm_hash: str = "") -> str:
        """The report name a worker publishes for *(site, mode)*.

        Non-broker policies never warm, so their names always carry an
        empty ``warm_hash`` — matching what :meth:`expand` plants on the
        cells.
        """
        is_broker = parse_mode(mode)[0] == "broker"
        return site_report_name(
            site=site, provider=self.provider, mode=mode,
            n_uploads_per_site=self.n_uploads_per_site,
            mean_interarrival_s=self.mean_interarrival_s,
            mean_size_mb=self.mean_size_mb, size_dist=self.size_dist,
            seed=self.seed, cross_traffic=self.cross_traffic,
            config=self.config, topo=self.topo,
            warm_hash=warm_hash if is_broker else "")

    def expand(self, warm: Optional[DirectorySnapshot] = None,
               warm_hash: Optional[str] = None,
               publish_root: Optional[str] = None,
               cache_dir: Optional[str] = None) -> List[ShardCell]:
        """The plan's cells: shard-major, then mode (modes as given).

        Empty shards are skipped.  *warm* rides only on broker-kind
        cells (a warm snapshot cannot change a broker-less policy, and
        keeping direct cells warm-free lets the store reuse them across
        warm generations).  Passing *warm_hash* without the snapshot
        builds identity-only cells — enough for store lookups and
        report names, not executable.
        """
        if warm is not None:
            warm_hash = warm.content_hash()[:24]
        elif warm_hash is None:
            warm_hash = ""
        cells: List[ShardCell] = []
        for index, shard_sites in enumerate(self.shards()):
            if not shard_sites:
                continue
            for mode in self.modes:
                is_broker = parse_mode(mode)[0] == "broker"
                cells.append(ShardCell(
                    sites=shard_sites,
                    provider=self.provider,
                    mode=mode,
                    n_uploads_per_site=self.n_uploads_per_site,
                    mean_interarrival_s=self.mean_interarrival_s,
                    mean_size_mb=self.mean_size_mb,
                    size_dist=self.size_dist,
                    seed=self.seed,
                    shard_index=index,
                    n_shards=self.n_shards,
                    cross_traffic=self.cross_traffic,
                    config=self.config,
                    topo=self.topo,
                    warm_hash=warm_hash if is_broker else "",
                    warm=warm if is_broker else None,
                    publish_root=publish_root,
                    cache_dir=cache_dir,
                ))
        return cells
