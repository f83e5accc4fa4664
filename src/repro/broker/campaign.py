"""Campaign integration: broker-on vs broker-off sweeps as cells.

A :class:`FleetCell` is one fleet run (one policy, one seed) flattened
into the campaign engine's cell protocol: content-addressed identity,
stable key, a ``run_measurement`` method the worker dispatches to, and a
measurement whose per-"run" durations are the per-upload realized
transfer times in schedule order (``discard_runs == 0``, so the stored
mean *is* the fleet mean transfer time).

All policies of one seed share a **workload-derived world seed** (the
policy is deliberately excluded from the derivation), so ``direct``,
``static:*`` and ``broker`` cells replay the identical schedule in the
identical world — which is what makes cross-policy regret meaningful.

:class:`BrokerSweepSpec` expands the (seeds x modes) matrix;
``CampaignRunner`` accepts it unchanged (the runner duck-types specs via
``expand()``), so broker sweeps inherit caching, resume, parallel pool
execution, and canonical export for free.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.store import register_cell_type
from repro.core.identity import content_key
from repro.errors import BrokerError, CampaignError
from repro.measure.harness import ExperimentProtocol, Measurement, experiment_seed
from repro.measure.stats import summarize

from repro.topo.spec import TopoSpec

from repro.broker.config import BrokerConfig
from repro.broker.fleet import parse_mode, run_fleet

__all__ = ["FleetCell", "BrokerSweepSpec", "SweepSummary", "score_sweep",
           "workload_fields", "workload_identity"]

FLEET_CELL_TYPE = "broker-fleet"

#: Bump when a change to the fleet execution path invalidates stored cells.
FLEET_CELL_VERSION = 1


def workload_identity(w) -> Dict[str, object]:
    """JSON identity of the fleet workload *w* describes.

    *w* is anything carrying the ten workload fields — a
    :class:`FleetCell`, a shard cell, a shard plan.  A world rides as
    its content hash plus the spec itself: the hash names the world
    (and guards reconstruction), the spec makes the identity
    self-contained.  Without a world the ``topo`` key is absent, so
    pre-topo keys stand.
    """
    ident: Dict[str, object] = {
        "sites": list(w.sites),
        "provider": w.provider,
        "n_uploads_per_site": int(w.n_uploads_per_site),
        "mean_interarrival_s": float(w.mean_interarrival_s),
        "mean_size_mb": float(w.mean_size_mb),
        "size_dist": w.size_dist,
        "seed": int(w.seed),
        "cross_traffic": bool(w.cross_traffic),
        "config": None if w.config is None else asdict(w.config),
    }
    if w.topo is not None:
        ident["topo"] = {"hash": w.topo.content_hash(),
                         "spec": w.topo.canonical_dict()}
    return ident


def workload_fields(ident: Mapping[str, object]) -> Dict[str, object]:
    """Constructor keywords revived from a :func:`workload_identity`.

    Raises :class:`~repro.errors.CampaignError` when a carried world
    spec does not hash to the name it was stored under.
    """
    config = ident["config"]
    if config is not None:
        config = BrokerConfig(**{
            **config,
            "size_class_edges_mb": tuple(config["size_class_edges_mb"])})
    topo_ident = ident.get("topo")
    topo = None
    if topo_ident is not None:
        topo = TopoSpec.from_dict(topo_ident["spec"])
        if topo.content_hash() != topo_ident["hash"]:
            raise CampaignError(
                f"fleet workload topo hash {topo_ident['hash']!r} does not "
                f"match its spec (got {topo.content_hash()!r})")
    return dict(
        sites=tuple(ident["sites"]),
        provider=ident["provider"],
        n_uploads_per_site=int(ident["n_uploads_per_site"]),
        mean_interarrival_s=float(ident["mean_interarrival_s"]),
        mean_size_mb=float(ident["mean_size_mb"]),
        size_dist=ident["size_dist"],
        seed=int(ident["seed"]),
        cross_traffic=bool(ident["cross_traffic"]),
        config=config,
        topo=topo,
    )


@dataclass(frozen=True)
class FleetCell:
    """One fleet run (one policy at one seed) as a campaign cell."""

    sites: Tuple[str, ...]
    provider: str
    mode: str  # "direct" | "broker" | "static:<route>"
    n_uploads_per_site: int
    mean_interarrival_s: float
    mean_size_mb: float
    size_dist: str = "lognormal"
    seed: int = 0
    cross_traffic: bool = True
    config: Optional[BrokerConfig] = None
    #: run the fleet on this (typically generated) world instead of the
    #: calibrated case study; referenced by content hash in the identity
    topo: Optional[TopoSpec] = None

    def __post_init__(self) -> None:
        if not self.sites:
            raise CampaignError("fleet cell needs at least one site")
        parse_mode(self.mode)  # fail fast on unknown policies

    @property
    def n_uploads(self) -> int:
        return self.n_uploads_per_site * len(self.sites)

    @property
    def workload_label(self) -> str:
        """The schedule+world identity — shared by every policy."""
        world = ("" if self.topo is None
                 else f"@{self.topo.content_hash()[:12]}")
        return (f"fleet{world} {'+'.join(self.sites)}->{self.provider} "
                f"{self.n_uploads}x~{self.mean_size_mb:g}MB {self.size_dist}")

    @property
    def label(self) -> str:
        return f"{self.workload_label} [{self.mode}]"

    @property
    def world_seed(self) -> int:
        """Derived from the *workload* (not the policy): all policies of
        one seed replay the same world and schedule."""
        return experiment_seed(self.seed, self.workload_label)

    @property
    def protocol(self) -> ExperimentProtocol:
        """One 'run' per upload, nothing discarded: mean == fleet mean."""
        return ExperimentProtocol(total_runs=self.n_uploads, discard_runs=0,
                                  inter_run_gap_s=0.0)

    def identity(self) -> Dict[str, object]:
        return {"cell_type": FLEET_CELL_TYPE, "version": FLEET_CELL_VERSION,
                "mode": self.mode, **workload_identity(self)}

    @property
    def key(self) -> str:
        return content_key(self.identity(), 24)

    @classmethod
    def from_identity(cls, ident: Dict[str, object]) -> "FleetCell":
        if ident.get("cell_type") != FLEET_CELL_TYPE:
            raise CampaignError(f"not a {FLEET_CELL_TYPE} identity: {ident!r}")
        version = ident.get("version")
        if version != FLEET_CELL_VERSION:
            raise CampaignError(
                f"fleet cell identity version {version!r} is not the "
                f"supported {FLEET_CELL_VERSION}")
        return cls(mode=ident["mode"], **workload_fields(ident))

    def describe(self) -> str:
        return f"{self.label} seed={self.seed}"

    def run_measurement(self, metrics=None) -> Measurement:
        """Execute the fleet; per-upload durations become the 'runs'."""
        result = run_fleet(
            seed=self.world_seed,
            sites=self.sites,
            provider=self.provider,
            n_uploads_per_site=self.n_uploads_per_site,
            mean_interarrival_s=self.mean_interarrival_s,
            mean_size_mb=self.mean_size_mb,
            size_dist=self.size_dist,
            mode=self.mode,
            config=self.config,
            cross_traffic=self.cross_traffic,
            metrics=metrics if metrics is not None else False,
            schedule_seed=self.seed,
            topo=self.topo,
        )
        durations = list(result.durations_s)
        return Measurement(label=self.label, all_durations_s=tuple(durations),
                           kept=summarize(durations), results=())


register_cell_type(FLEET_CELL_TYPE, FleetCell)


#: The default policy ladder: broker-off baselines, then the broker.
DEFAULT_MODES: Tuple[str, ...] = (
    "direct", "static:via ualberta", "static:via umich", "broker")


@dataclass(frozen=True)
class BrokerSweepSpec:
    """The (seeds x policies) matrix of one fleet workload."""

    sites: Tuple[str, ...] = ("ubc", "purdue", "ucla")
    provider: str = "gdrive"
    modes: Tuple[str, ...] = DEFAULT_MODES
    n_uploads_per_site: int = 20
    mean_interarrival_s: float = 60.0
    mean_size_mb: float = 40.0
    size_dist: str = "lognormal"
    seeds: Tuple[int, ...] = (0,)
    cross_traffic: bool = True
    config: Optional[BrokerConfig] = None
    #: optional generated world every cell of the sweep runs on
    topo: Optional[TopoSpec] = None

    def __post_init__(self) -> None:
        if not self.sites or not self.modes or not self.seeds:
            raise CampaignError("broker sweep has an empty axis")

    def expand(self) -> List[FleetCell]:
        """Fixed order: ``seed > mode`` (modes as given)."""
        return [
            FleetCell(
                sites=self.sites, provider=self.provider, mode=mode,
                n_uploads_per_site=self.n_uploads_per_site,
                mean_interarrival_s=self.mean_interarrival_s,
                mean_size_mb=self.mean_size_mb, size_dist=self.size_dist,
                seed=seed, cross_traffic=self.cross_traffic,
                config=self.config, topo=self.topo,
            )
            for seed in self.seeds
            for mode in self.modes
        ]

    def describe(self) -> str:
        cells = len(self.seeds) * len(self.modes)
        return (f"fleet {'+'.join(self.sites)}->{self.provider}: "
                f"{len(self.modes)} polic(ies) x {len(self.seeds)} seed(s) "
                f"= {cells} cells of "
                f"{self.n_uploads_per_site * len(self.sites)} uploads")


@dataclass(frozen=True)
class SweepSummary:
    """Cross-policy scores aggregated over a sweep's seeds."""

    n_uploads: int
    seeds: Tuple[int, ...]
    #: mode -> (mean transfer s, mean regret s vs the per-upload oracle)
    by_mode: Dict[str, Tuple[float, float]]

    def mean_s(self, mode: str) -> float:
        return self.by_mode[mode][0]

    def regret_s(self, mode: str) -> float:
        return self.by_mode[mode][1]

    def render(self) -> str:
        lines = [f"{self.n_uploads} uploads/seed over seeds "
                 f"{list(self.seeds)}; regret vs per-upload oracle:"]
        width = max(len(m) for m in self.by_mode)
        for mode in sorted(self.by_mode):
            mean_s, regret_s = self.by_mode[mode]
            lines.append(f"  {mode:<{width}}  mean {mean_s:9.2f}s  "
                         f"regret {regret_s:8.2f}s")
        return "\n".join(lines)

    def to_metrics(self, registry) -> None:
        """Publish the seed-averaged per-policy rollup as gauges."""
        uploads = registry.gauge(
            "repro_broker_sweep_uploads_count",
            "Uploads per seed in the scored sweep")
        mean_g = registry.gauge(
            "repro_broker_sweep_mean_transfer_seconds",
            "Seed-averaged mean upload duration per policy")
        regret_g = registry.gauge(
            "repro_broker_sweep_regret_mean_seconds",
            "Seed-averaged mean regret vs the per-upload oracle per policy")
        uploads.set(self.n_uploads)
        for mode in sorted(self.by_mode):
            mean_s, regret_s = self.by_mode[mode]
            mean_g.set(mean_s, mode=mode)
            regret_g.set(regret_s, mode=mode)


def score_sweep(spec: BrokerSweepSpec, records: Sequence) -> SweepSummary:
    """Score a completed sweep's records (cross-policy regret per seed).

    *records* are the campaign's ok records for *spec* (cells still
    missing or quarantined raise — a partial sweep cannot be scored).
    """
    by_cell = {}
    for rec in records:
        if rec.ok:
            by_cell[rec.cell.key] = rec.measurement
    durations: Dict[int, Dict[str, Tuple[float, ...]]] = {}
    for cell in spec.expand():
        m = by_cell.get(cell.key)
        if m is None:
            raise BrokerError(f"sweep is missing cell {cell.describe()!r}")
        durations.setdefault(cell.seed, {})[cell.mode] = m.all_durations_s
    n = spec.n_uploads_per_site * len(spec.sites)
    totals: Dict[str, List[float]] = {m: [0.0, 0.0] for m in spec.modes}
    for seed in spec.seeds:
        per_mode = durations[seed]
        oracle = [min(per_mode[m][i] for m in spec.modes) for i in range(n)]
        for mode in spec.modes:
            mean_s = sum(per_mode[mode]) / n
            regret_s = sum(d - o for d, o in zip(per_mode[mode], oracle)) / n
            totals[mode][0] += mean_s
            totals[mode][1] += regret_s
    n_seeds = len(spec.seeds)
    return SweepSummary(
        n_uploads=n,
        seeds=tuple(spec.seeds),
        by_mode={m: (totals[m][0] / n_seeds, totals[m][1] / n_seeds)
                 for m in spec.modes},
    )
