"""Fleet execution: a population schedule driven through the broker.

``FleetRunner`` plays an :class:`~repro.workloads.UploadSchedule` inside
one world, one kernel process per upload.  Three policies:

* ``"direct"`` — every upload takes its direct route.  This mode is
  *broker-off bit-identical*: it performs exactly the kernel operations
  of a plain schedule loop, so a world that never imported
  ``repro.broker`` renders the same numbers (pinned by a tier-1 test).
* ``"static:<route>"`` — one fixed route for the whole fleet (clients
  for whom it would be a self-detour fall back to direct).
* ``"broker"`` — each upload asks the :class:`~repro.broker.service.DetourBroker`
  at its start time and reports its realized duration back.

``score_fleet`` computes the regret of each policy against the per-upload
oracle (the best duration any compared policy achieved for that upload).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import zip_longest
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
                    Union)

from repro.core.executor import PlanExecutor
from repro.core.routes import DirectRoute, Route, TransferPlan
from repro.core.world import World
from repro.errors import BrokerError
from repro.sim.kernel import AllOf
from repro.workloads.generator import UploadSchedule, fleet_population_schedule

from repro.broker.config import BrokerConfig
from repro.broker.service import DetourBroker, Recommendation

__all__ = ["FleetUploadRecord", "FleetResult", "FleetRunner", "run_fleet",
           "FleetScore", "fleet_world", "parse_mode", "score_fleet"]


@dataclass(frozen=True)
class FleetUploadRecord:
    """One realized upload of a fleet run."""

    index: int
    client_site: str
    provider_name: str
    size_bytes: int
    start_s: float
    route_descr: str
    #: "directory" | "history" | "default" (broker mode), or the policy
    #: name ("direct" / "static") otherwise.
    source: str
    spilled: bool
    staleness_s: float
    duration_s: float


@dataclass(frozen=True)
class FleetResult:
    """Everything one fleet run produced, in schedule order."""

    mode: str
    seed: int
    records: Tuple[FleetUploadRecord, ...]
    probes_issued: int
    directory_hits: int
    directory_misses: int
    admission_spills: int
    #: lazy TTL expiries the directory observed during the run
    directory_evictions: int = 0

    @property
    def durations_s(self) -> Tuple[float, ...]:
        return tuple(r.duration_s for r in self.records)

    @property
    def mean_transfer_s(self) -> float:
        return sum(self.durations_s) / len(self.records)

    @property
    def hit_rate(self) -> float:
        looked = self.directory_hits + self.directory_misses
        return self.directory_hits / looked if looked else 0.0

    @property
    def probes_per_upload(self) -> float:
        return self.probes_issued / len(self.records)

    def to_dict(self) -> Dict[str, object]:
        """Canonical (JSON-able) view; equal dicts == bit-identical runs."""
        return {
            "mode": self.mode,
            "seed": self.seed,
            "probes_issued": self.probes_issued,
            "directory_hits": self.directory_hits,
            "directory_misses": self.directory_misses,
            "directory_evictions": self.directory_evictions,
            "admission_spills": self.admission_spills,
            "uploads": [
                {
                    "index": r.index,
                    "client": r.client_site,
                    "provider": r.provider_name,
                    "size_bytes": r.size_bytes,
                    "start_s": r.start_s,
                    "route": r.route_descr,
                    "source": r.source,
                    "spilled": r.spilled,
                    "staleness_s": r.staleness_s,
                    "duration_s": r.duration_s,
                }
                for r in self.records
            ],
        }


def parse_mode(mode: str) -> Tuple[str, Optional[str]]:
    """``"broker" | "direct" | "static:<route>"`` -> (kind, static route)."""
    if mode in ("broker", "direct"):
        return mode, None
    if mode.startswith("static:"):
        descr = mode.split(":", 1)[1].strip()
        if not descr:
            raise BrokerError("static mode needs a route, e.g. 'static:via umich'")
        return "static", descr
    raise BrokerError(
        f"unknown fleet mode {mode!r}; have: 'broker', 'direct', 'static:<route>'")


class FleetRunner:
    """Drive one upload schedule through one policy inside one world."""

    def __init__(self, world: World, schedule: UploadSchedule,
                 mode: str = "broker", broker: Optional[DetourBroker] = None):
        if not schedule.uploads:
            raise BrokerError("fleet schedule is empty")
        self.kind, self.static_route = parse_mode(mode)
        if self.kind == "broker" and broker is None:
            raise BrokerError("broker mode needs a DetourBroker instance")
        if self.kind != "broker" and broker is not None:
            raise BrokerError(f"mode {mode!r} must not carry a broker")
        self.world = world
        self.schedule = schedule
        self.mode = mode
        self.broker = broker
        self._m_uploads = world.metrics.counter(
            "repro_broker_fleet_uploads_total", "Fleet uploads completed")
        self._m_transfer = world.metrics.histogram(
            "repro_broker_fleet_transfer_seconds", "Realized upload durations")
        self._m_bytes = world.metrics.counter(
            "repro_broker_fleet_payload_bytes_total",
            "Fleet upload payload bytes by client site")
        self._m_source = world.metrics.counter(
            "repro_broker_fleet_route_source_total",
            "Route recommendations by decision source")

    def _recommend(self, upload) -> Recommendation:
        if self.kind == "broker":
            return self.broker.recommend(upload.client_site,
                                         upload.provider_name,
                                         upload.file.size_bytes)
        if self.kind == "static":
            from repro.campaign.spec import route_from_string

            route: Route = route_from_string(self.static_route)
            if route.via == upload.client_site:
                route = DirectRoute()
            return Recommendation(route, "static", False, 0.0)
        return Recommendation(DirectRoute(), "direct", False, 0.0)

    def run(self, horizon_s: float = 1e7) -> FleetResult:
        """Execute the whole schedule; returns the ordered records."""
        world = self.world
        executor = PlanExecutor(world)
        uploads = self.schedule.uploads
        records: List[Optional[FleetUploadRecord]] = [None] * len(uploads)

        def one(index: int, upload):
            delay = upload.start_s - world.sim.now
            if delay > 0:
                yield delay
            rec = self._recommend(upload)
            plan = TransferPlan(upload.client_site, upload.provider_name,
                                upload.file, rec.route)
            result = yield from executor.execute(plan)
            duration = result.total_s
            if self.broker is not None:
                self.broker.report(upload.client_site, upload.provider_name,
                                   rec.route, upload.file.size_bytes, duration)
            self._m_uploads.inc(mode=self.kind, site=upload.client_site)
            self._m_transfer.observe(duration, mode=self.kind,
                                     site=upload.client_site)
            self._m_bytes.inc(upload.file.size_bytes, site=upload.client_site)
            self._m_source.inc(source=rec.source)
            records[index] = FleetUploadRecord(
                index=index,
                client_site=upload.client_site,
                provider_name=upload.provider_name,
                size_bytes=upload.file.size_bytes,
                start_s=upload.start_s,
                route_descr=rec.route.describe(),
                source=rec.source,
                spilled=rec.spilled,
                staleness_s=rec.staleness_s,
                duration_s=duration,
            )

        if self.broker is not None:
            self.broker.start()
        procs = [world.sim.process(one(i, u), name=f"fleet:{i}")
                 for i, u in enumerate(uploads)]

        def drive():
            yield AllOf(procs)

        driver = world.sim.process(drive(), name="fleet-drive")
        world.sim.run_until_triggered(driver.done, horizon=horizon_s)
        if not driver.finished:
            done = sum(1 for r in records if r is not None)
            raise BrokerError(
                f"fleet did not finish within {horizon_s:g}s of sim time "
                f"({done}/{len(uploads)} uploads done)")
        for proc in procs:
            if proc.error is not None:
                raise proc.error
        if self.broker is not None:
            probes = self.broker.probes_issued
            hits = self.broker.directory.hits
            misses = self.broker.directory.misses
            spills = self.broker.admission.spills
            evictions = self.broker.directory.evictions
        else:
            probes = hits = misses = spills = evictions = 0
        return FleetResult(
            mode=self.mode,
            seed=world.seed,
            records=tuple(records),
            probes_issued=probes,
            directory_hits=hits,
            directory_misses=misses,
            admission_spills=spills,
            directory_evictions=evictions,
        )


def fleet_world(seed: int, topo=None, cross_traffic: bool = True,
                metrics=False, profile=False,
                cache_dir: Optional[str] = None) -> World:
    """The world a fleet runs in: *topo* compiled and materialized, or
    (``topo=None``) the calibrated case study.

    The compiled world is served from *cache_dir* when given;
    *cross_traffic* only applies to the case study.
    """
    if topo is not None:
        from repro.topo.materialize import compile_spec, materialize

        compiled = compile_spec(topo, cache_dir=cache_dir, routes=True)
        return materialize(compiled, seed=seed, metrics=metrics,
                           profile=profile)
    from repro.testbed.build import build_case_study

    return build_case_study(seed=seed, cross_traffic=cross_traffic,
                            metrics=metrics, profile=profile,
                            cache_dir=cache_dir)


def run_fleet(
    seed: int,
    sites: Sequence[str],
    provider: str = "gdrive",
    n_uploads_per_site: int = 20,
    mean_interarrival_s: float = 60.0,
    mean_size_mb: float = 40.0,
    size_dist: str = "lognormal",
    mode: str = "broker",
    config: Optional[BrokerConfig] = None,
    cross_traffic: bool = True,
    metrics=False,
    profile=False,
    schedule_seed: Optional[int] = None,
    horizon_s: float = 1e7,
    topo=None,
    cache_dir: Optional[str] = None,
) -> FleetResult:
    """Build a world + fleet schedule and run one policy.

    By default the world is the calibrated case study; passing a
    :class:`~repro.topo.spec.TopoSpec` as *topo* runs the fleet on that
    (typically generated) world instead, compiled through
    :func:`~repro.topo.materialize.compile_spec` — served from
    *cache_dir* when given.  Generated worlds carry no calibrated
    cross-traffic sources, so *cross_traffic* only applies to the
    default world.

    ``schedule_seed`` decouples the workload from the world (defaults to
    *seed*, so one number reproduces the whole run).  ``metrics`` and
    ``profile`` take a bool or a prebuilt registry/profiler, exactly as
    :func:`~repro.testbed.build.build_case_study` does.
    """
    world = fleet_world(seed, topo=topo, cross_traffic=cross_traffic,
                        metrics=metrics, profile=profile, cache_dir=cache_dir)
    unknown = sorted(set(sites) - set(world.hosts))
    if unknown:
        raise BrokerError(
            f"fleet sites not in the world's host map: {unknown[:5]} "
            f"(world has {len(world.hosts)} hosts)")
    schedule = fleet_population_schedule(
        tuple(sites), provider, n_uploads_per_site, mean_interarrival_s,
        mean_size_mb, seed=schedule_seed if schedule_seed is not None else seed,
        size_dist=size_dist)
    broker = None
    if parse_mode(mode)[0] == "broker":
        broker = DetourBroker(world, pairs=[(c, provider) for c in sites],
                              config=config)
    return FleetRunner(world, schedule, mode=mode, broker=broker).run(horizon_s)


@dataclass(frozen=True)
class FleetScore:
    """Cross-policy comparison over one shared schedule."""

    n_uploads: int
    oracle_mean_s: float
    #: mode -> (mean transfer seconds, mean regret seconds vs the oracle)
    by_mode: Dict[str, Tuple[float, float]]
    #: (mode, site) -> (mean transfer seconds, mean regret seconds); the
    #: per-site rollup of the same oracle comparison.
    by_site: Dict[Tuple[str, str], Tuple[float, float]] = field(
        default_factory=dict)

    def render(self, per_site: bool = False) -> str:
        lines = [f"fleet of {self.n_uploads} uploads; "
                 f"per-upload oracle mean {self.oracle_mean_s:.2f}s"]
        width = max(len(m) for m in self.by_mode)
        for mode in sorted(self.by_mode):
            mean_s, regret_s = self.by_mode[mode]
            lines.append(f"  {mode:<{width}}  mean {mean_s:9.2f}s  "
                         f"regret {regret_s:8.2f}s")
            if per_site:
                for (m, site) in sorted(self.by_site):
                    if m != mode:
                        continue
                    s_mean, s_regret = self.by_site[(m, site)]
                    lines.append(f"    {site:<{width - 2}}  "
                                 f"mean {s_mean:9.2f}s  "
                                 f"regret {s_regret:8.2f}s")
        return "\n".join(lines)

    def to_metrics(self, registry) -> None:
        """Publish the rollup as ``repro_broker_fleet_*`` gauges.

        Per-policy series carry a ``mode`` label; the per-site breakdown
        adds a ``site`` label, so the existing Prometheus/JSONL exporters
        ship both granularities from one registry.
        """
        oracle = registry.gauge(
            "repro_broker_fleet_oracle_mean_seconds",
            "Mean per-upload oracle duration across compared policies")
        mean_g = registry.gauge(
            "repro_broker_fleet_mean_transfer_seconds",
            "Mean realized upload duration per policy (and per site)")
        regret_g = registry.gauge(
            "repro_broker_fleet_regret_mean_seconds",
            "Mean per-upload regret vs the oracle per policy (and per site)")
        oracle.set(self.oracle_mean_s)
        for mode in sorted(self.by_mode):
            mean_s, regret_s = self.by_mode[mode]
            mean_g.set(mean_s, mode=mode)
            regret_g.set(regret_s, mode=mode)
        for (mode, site) in sorted(self.by_site):
            mean_s, regret_s = self.by_site[(mode, site)]
            mean_g.set(mean_s, mode=mode, site=site)
            regret_g.set(regret_s, mode=mode, site=site)


#: ``score_fleet`` accepts full results or bare per-mode record streams.
FleetRecords = Union[FleetResult, Iterable[FleetUploadRecord]]


def score_fleet(results: Mapping[str, FleetRecords]) -> FleetScore:
    """Score policies that ran the *same* schedule against each other.

    The oracle for upload *i* is the fastest duration any compared policy
    realized for it; a policy's regret is its mean excess over that
    oracle.  (An oracle over policies, not over routes — contention makes
    a true per-route oracle schedule-dependent.)  The per-site rollup
    restricts both aggregates to each client site's own uploads.

    Each mapping value is either a :class:`FleetResult` or any iterable
    of :class:`FleetUploadRecord` — including a one-shot generator: the
    scorer makes a single index-aligned pass and accumulates per-mode and
    per-site sums as it goes, so a million-upload fleet streams through
    in O(modes x sites) memory without the records ever being
    materialized as a list.
    """
    if not results:
        raise BrokerError("score_fleet needs at least one result")
    modes = sorted(results)
    streams = [iter(getattr(results[m], "records", results[m]))
               for m in modes]
    n = 0
    oracle_sum = 0.0
    #: mode -> [duration sum, regret sum]; accumulated in upload order,
    #: matching the summation order of the materialized-list scorer.
    mode_acc: Dict[str, List[float]] = {m: [0.0, 0.0] for m in modes}
    #: (mode, site) -> [duration sum, regret sum, uploads]
    site_acc: Dict[Tuple[str, str], List[float]] = {}
    for row in zip_longest(*streams, fillvalue=None):
        if any(rec is None for rec in row):
            raise BrokerError("fleet results disagree on upload count")
        oracle = min(rec.duration_s for rec in row)
        oracle_sum += oracle
        n += 1
        for mode, rec in zip(modes, row):
            acc = mode_acc[mode]
            acc[0] += rec.duration_s
            acc[1] += rec.duration_s - oracle
            cell = site_acc.setdefault((mode, rec.client_site),
                                       [0.0, 0.0, 0.0])
            cell[0] += rec.duration_s
            cell[1] += rec.duration_s - oracle
            cell[2] += 1.0
    if n == 0:
        raise BrokerError("fleet results are empty")
    by_mode = {m: (mode_acc[m][0] / n, mode_acc[m][1] / n) for m in modes}
    by_site = {key: (site_acc[key][0] / site_acc[key][2],
                     site_acc[key][1] / site_acc[key][2])
               for key in sorted(site_acc)}
    return FleetScore(n_uploads=n, oracle_mean_s=oracle_sum / n,
                      by_mode=by_mode, by_site=by_site)
