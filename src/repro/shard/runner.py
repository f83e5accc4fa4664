"""Sharded fleet execution: run, resume, and merge under one root.

``run_sharded`` is the one-call path: expand the plan into shard cells,
warm them from a published directory snapshot (optional), execute them
through the :mod:`repro.campaign` pool against a content-addressed store
under ``<root>/cells``, then fold everything with ``merge_sharded``.
Resume is inherited from the store: a run killed mid-flight (including
``SIGKILL``, which skips all cleanup) re-executes only the cells whose
records never landed — completed shards are answered from the store
byte-identically.

The run root's layout is fixed::

    <root>/shardrun.json   the plan + warm provenance (written *before*
                           execution, so status/merge work after a crash)
    <root>/cells/          campaign result store (one JSON per cell)
    <root>/directory/      shared-directory file tier: per-site reports,
                           published snapshots (incl. the merged one)
    <root>/topo-cache/     compiled-world cache for generated worlds

``merge_sharded`` never rebuilds worlds and never re-reads upload
records into memory: it slices each cell's stored durations back into
per-site streams (site-major, the order ``ShardCell.run_measurement``
wrote them), folds them through a :class:`~repro.shard.aggregate.FleetAggregator`
in O(sites) state, folds the published site reports into the rollup, and
merges the per-site directory snapshots freshest-wins **in plan site
order** — so the merged score, rollup, and snapshot are pure functions
of the plan, whatever the shard or job count was.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.broker.directory import DirectorySnapshot
from repro.broker.fleet import FleetScore
from repro.campaign.pool import PoolConfig
from repro.campaign.runner import CampaignRunner, campaign_status
from repro.campaign.store import ResultStore
from repro.core.atomic import atomic_write_json, read_json_object
from repro.errors import ShardError
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryEvent, as_sink

from repro.shard.aggregate import FleetAggregator
from repro.shard.plan import ShardCell, ShardPlan
from repro.shard.service import SharedDirectoryService

__all__ = ["ShardMergeResult", "ShardRunResult", "run_sharded",
           "merge_sharded", "shard_status", "read_run_file", "write_run_file"]

RUN_FILE = "shardrun.json"
RUN_FILE_VERSION = 1


class _ShardSpec:
    """A fixed cell list wearing the campaign spec protocol."""

    def __init__(self, cells: List[ShardCell], plan: ShardPlan):
        self._cells = cells
        self._plan = plan

    def expand(self) -> List[ShardCell]:
        return list(self._cells)

    def describe(self) -> str:
        return self._plan.describe()


@dataclass(frozen=True)
class ShardMergeResult:
    """What one merge produced: the fleet score and its provenance."""

    score: FleetScore
    #: mode -> directory/probe aggregates (see ``FleetAggregator.rollup``)
    rollup: Dict[str, Dict[str, float]]
    merged_snapshot_name: str
    merged_snapshot_hash: str
    merged_entries: int
    #: live accumulator cells the aggregator ended with — the O(sites)
    #: memory claim, asserted by the scale benchmark
    aggregator_cells: int
    records_folded: int

    def render(self, per_site: bool = False) -> str:
        lines = [self.score.render(per_site=per_site)]
        for mode in sorted(self.rollup):
            r = self.rollup[mode]
            lines.append(
                f"  {mode}: {r['probes_issued']:g} probes "
                f"({r['probes_per_upload']:.2f}/upload), "
                f"hit rate {r['hit_rate']:.0%} "
                f"(warm {r['warm_hit_rate']:.0%}), "
                f"{r['evictions']:g} evictions, "
                f"{r['invalidations']:g} invalidations, "
                f"{r['admission_spills']:g} spills")
        lines.append(f"merged directory: {self.merged_entries} entries as "
                     f"{self.merged_snapshot_name} "
                     f"({self.merged_snapshot_hash[:12]})")
        return "\n".join(lines)


@dataclass(frozen=True)
class ShardRunResult:
    """What one ``run_sharded`` invocation did."""

    plan: ShardPlan
    executed: int
    cached: int
    warm_from: Optional[str]
    warm_entries: int
    merge: ShardMergeResult


def write_run_file(root: Union[str, Path], plan: ShardPlan,
                   warm_from: Optional[str], warm_hash: str,
                   warm_entries: int) -> Path:
    """Persist the run's provenance (atomically) under the run root."""
    payload = {
        "version": RUN_FILE_VERSION,
        "plan": plan.canonical_dict(),
        "warm_from": warm_from,
        "warm_hash": warm_hash,
        "warm_entries": int(warm_entries),
    }
    return atomic_write_json(Path(root) / RUN_FILE, payload,
                             sort_keys=True, indent=1, mkdir=True)


def read_run_file(root: Union[str, Path]) -> Dict[str, object]:
    """The run root's provenance document (plan dict + warm lineage)."""
    path = Path(root) / RUN_FILE
    try:
        payload = read_json_object(path)
    except ValueError as exc:
        raise ShardError(f"corrupt shard run file {path}: {exc}") from exc
    if payload is None:
        raise ShardError(
            f"no shard run at {Path(root)} (missing {RUN_FILE}; "
            f"start one with run_sharded / `repro shard run`)")
    if payload.get("version") != RUN_FILE_VERSION:
        raise ShardError(
            f"unsupported shard run file version {payload.get('version')!r}")
    return payload


def _layout(root: Union[str, Path]) -> Tuple[Path, Path, Path, Path]:
    root = Path(root)
    return root, root / "cells", root / "directory", root / "topo-cache"


def run_sharded(
    plan: ShardPlan,
    root: Union[str, Path],
    jobs: int = 1,
    warm_from: Optional[str] = None,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    metrics: Optional[MetricsRegistry] = None,
    telemetry=None,
) -> ShardRunResult:
    """Execute (or resume) *plan* under *root*, then merge.

    *warm_from* names a snapshot published in the run root's directory
    tier (e.g. a previous generation's ``merged-<plan key>``); every
    broker-kind cell preloads it.  A missing name is an error — silently
    running cold would store cells under a different identity than the
    caller asked for.
    """
    root, cells_dir, dir_root, cache_dir = _layout(root)
    registry = metrics if metrics is not None else MetricsRegistry(enabled=False)
    service = SharedDirectoryService(dir_root, metrics=metrics)
    sink = as_sink(telemetry)

    warm = None
    warm_hash = ""
    if warm_from is not None:
        warm = service.fetch_snapshot(warm_from)
        if warm is None:
            raise ShardError(
                f"warm snapshot {warm_from!r} is not published under "
                f"{dir_root} (or is fully stale); published: "
                f"{service.tier.names()[:8]}")
        warm_hash = warm.content_hash()[:24]
        if sink is not None:
            sink(TelemetryEvent("shard_warmed", warm_from, 0, status="ok",
                                count=len(warm)))

    if plan.topo is not None:
        # Compile the generated world once, in the parent: every worker
        # then loads routes from the shared cache instead of redoing the
        # all-pairs computation per site unit.
        from repro.topo.materialize import compile_spec

        compile_spec(plan.topo, cache_dir=str(cache_dir), routes=True)

    write_run_file(root, plan, warm_from, warm_hash,
                   0 if warm is None else len(warm))

    cells = plan.expand(warm=warm, publish_root=str(dir_root),
                        cache_dir=str(cache_dir))
    registry.gauge(
        "repro_shard_cells_count",
        "Cells (non-empty shard x policy) of the executing plan",
    ).set(len(cells))
    runner = CampaignRunner(
        _ShardSpec(cells, plan),
        store=ResultStore(cells_dir),
        pool=PoolConfig(jobs=jobs, timeout_s=timeout_s, retries=retries),
        metrics=registry,
        telemetry=telemetry,
    )
    result = runner.run()
    bad = [r for r in result.records if not r.ok]
    if bad:
        details = "; ".join(
            f"{r.cell.describe()}: {r.error.describe()}" for r in bad[:3])
        raise ShardError(
            f"{len(bad)} shard cell(s) quarantined ({details}); the store "
            f"keeps the {result.executed + result.cached - len(bad)} good "
            f"cell(s) — fix and re-run to resume")

    if sink is not None:
        sink(TelemetryEvent("shard_published", plan.describe(), 0,
                            status="ok",
                            count=sum(len(c.sites) for c in cells)))
    merge = merge_sharded(plan, root, warm_hash=warm_hash, metrics=metrics,
                          telemetry=telemetry)
    return ShardRunResult(
        plan=plan,
        executed=result.executed,
        cached=result.cached,
        warm_from=warm_from,
        warm_entries=0 if warm is None else len(warm),
        merge=merge,
    )


def merge_sharded(
    plan: ShardPlan,
    root: Union[str, Path],
    warm_hash: str = "",
    metrics: Optional[MetricsRegistry] = None,
    telemetry=None,
) -> ShardMergeResult:
    """Fold a completed (possibly previously killed and resumed) run.

    Works offline: everything the merge needs — stored measurements,
    published site reports — is on disk, so ``repro shard merge`` can
    run in a fresh process long after the workers exited.  Processes one
    shard at a time and one site's streams at a time; the only growing
    state is the aggregator's O(sites) cells and the per-site directory
    snapshots awaiting the freshest-wins fold.
    """
    root, cells_dir, dir_root, _cache = _layout(root)
    registry = metrics if metrics is not None else MetricsRegistry(enabled=False)
    store = ResultStore(cells_dir)
    service = SharedDirectoryService(dir_root, metrics=metrics)
    aggregator = FleetAggregator(plan.modes)
    snapshots: Dict[str, DirectorySnapshot] = {}
    n_per_site = plan.n_uploads_per_site

    by_shard: Dict[int, Dict[str, ShardCell]] = {}
    for cell in plan.expand(warm_hash=warm_hash):
        by_shard.setdefault(cell.shard_index, {})[cell.mode] = cell

    for index in sorted(by_shard):
        per_mode = by_shard[index]
        durations: Dict[str, Tuple[float, ...]] = {}
        shard_sites: Tuple[str, ...] = ()
        for mode, cell in per_mode.items():
            rec = store.get(cell)
            if rec is None or not rec.ok:
                state = "quarantined" if rec is not None else "not computed"
                raise ShardError(
                    f"cannot merge: cell {cell.describe()!r} is {state}; "
                    f"run the plan (again) to completion first")
            expected = len(cell.sites) * n_per_site
            got = len(rec.measurement.all_durations_s)
            if got != expected:
                raise ShardError(
                    f"stored cell {cell.describe()!r} has {got} durations, "
                    f"expected {expected} ({len(cell.sites)} sites x "
                    f"{n_per_site})")
            durations[mode] = rec.measurement.all_durations_s
            shard_sites = cell.sites
        for j, site in enumerate(shard_sites):
            sl = slice(j * n_per_site, (j + 1) * n_per_site)
            aggregator.fold_site(
                site, {mode: durations[mode][sl] for mode in plan.modes})
            for mode in plan.modes:
                name = plan.site_report_name(site, mode, warm_hash)
                report = service.fetch_report(name)
                if report is None:
                    raise ShardError(
                        f"site report {name!r} for ({site!r}, {mode!r}) was "
                        f"never published under {dir_root}; re-run the plan "
                        f"to completion first")
                aggregator.fold_report(report)
                if report.snapshot is not None:
                    snapshots[site] = (
                        report.snapshot if site not in snapshots else
                        DirectorySnapshot.merged(
                            [snapshots[site], report.snapshot]))

    score = aggregator.score(plan.sites)
    rollup = aggregator.rollup()
    merged = DirectorySnapshot.merged(
        [snapshots[s] for s in plan.sites if s in snapshots])
    merged_hash = service.publish_snapshot(plan.merged_snapshot_name, merged)

    registry.gauge(
        "repro_shard_merged_sites_count",
        "Sites folded into the merged fleet score").set(aggregator.sites_folded)
    registry.gauge(
        "repro_shard_merged_entries_count",
        "Route entries in the published merged snapshot").set(len(merged))
    registry.gauge(
        "repro_shard_aggregator_cells_count",
        "Accumulator cells the merge ended with (O(sites) claim)",
    ).set(aggregator.state_cells)
    sink = as_sink(telemetry)
    if sink is not None:
        sink(TelemetryEvent("shard_merged", plan.merged_snapshot_name, 0,
                            status="ok", count=len(merged)))
    return ShardMergeResult(
        score=score,
        rollup=rollup,
        merged_snapshot_name=plan.merged_snapshot_name,
        merged_snapshot_hash=merged_hash,
        merged_entries=len(merged),
        aggregator_cells=aggregator.state_cells,
        records_folded=aggregator.records_folded,
    )


def shard_status(plan: ShardPlan, root: Union[str, Path],
                 warm_hash: str = "") -> Dict[str, object]:
    """How far a run under *root* has progressed (crash-safe, read-only)."""
    root, cells_dir, dir_root, _cache = _layout(root)
    store = ResultStore(cells_dir)
    cells = plan.expand(warm_hash=warm_hash)
    status = campaign_status(_ShardSpec(cells, plan), store)
    service = SharedDirectoryService(dir_root)
    published = 0
    expected = 0
    for cell in cells:
        for site in cell.sites:
            expected += 1
            if cell.site_report_name(site) in service.tier:
                published += 1
    status["reports_published"] = published
    status["reports_expected"] = expected
    status["merged_published"] = plan.merged_snapshot_name in service.tier
    status["shards"] = [
        {"index": i, "sites": len(sites)}
        for i, sites in enumerate(plan.shards()) if sites
    ]
    return status
