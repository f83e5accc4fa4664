"""Streaming fleet aggregation: fold shard outputs in O(sites) memory.

``merge_sharded`` never holds a fleet's upload records in memory — it
slices each shard cell's stored measurement back into per-site duration
streams and folds them through a :class:`FleetAggregator`, one site at a
time.  The aggregator keeps one :class:`~repro.broker.fleet.OracleFold`
per site — ``sites x (modes + 1)`` accumulator cells (one
``[sum, regret, n]`` triple per (mode, site), one oracle sum per site) —
plus an O(modes) rollup of report counters, so a million-upload fleet
merges in the memory footprint of its site list, which the scale
benchmark asserts.

Determinism: every upload's numbers enter its site's fold in schedule
order, and :meth:`FleetAggregator.score` adds the per-site folds in the
*caller's* site order (the plan order) — so the merged
:class:`~repro.broker.fleet.FleetScore` is a pure function of the plan,
independent of shard count, job count, and fold arrival order.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.broker.fleet import FleetScore, OracleFold
from repro.errors import ShardError

from repro.shard.service import SiteReport

__all__ = ["FleetAggregator"]

#: The per-mode counters a rollup aggregates from site reports.
_REPORT_FIELDS = ("n_uploads", "probes_issued", "directory_hits",
                  "directory_misses", "directory_evictions",
                  "directory_warm_hits", "invalidations", "admission_spills")


class FleetAggregator:
    """Fold per-site duration streams and reports into fleet aggregates."""

    def __init__(self, modes: Sequence[str]):
        if not modes:
            raise ShardError("aggregator needs at least one mode")
        if len(set(modes)) != len(modes):
            raise ShardError(f"aggregator modes repeat: {list(modes)}")
        self.modes: Tuple[str, ...] = tuple(modes)
        #: site -> that site's oracle sums, in schedule order
        self._folds: Dict[str, OracleFold] = {}
        #: mode -> summed report counters
        self._rollup: Dict[str, Dict[str, int]] = {
            m: {f: 0 for f in _REPORT_FIELDS} for m in self.modes}

    # -- introspection (the benchmark asserts on these) --------------------

    @property
    def sites_folded(self) -> int:
        return len(self._folds)

    @property
    def records_folded(self) -> int:
        """Upload records consumed so far (across all modes)."""
        return sum(f.n for f in self._folds.values()) * len(self.modes)

    @property
    def state_cells(self) -> int:
        """Accumulator cells — the aggregator's whole O(sites) state: the
        (mode, site) cells plus one oracle sum per site."""
        return sum(len(f.by_site) + 1 for f in self._folds.values())

    # -- folding ------------------------------------------------------------

    def fold_site(self, site: str,
                  durations: Mapping[str, Iterable[float]]) -> int:
        """Consume one site's per-mode duration streams; returns uploads.

        *durations* maps every plan mode to that site's realized upload
        durations in schedule order (any iterable — including a one-shot
        generator; streams are consumed in lockstep, never materialized).
        The per-upload oracle is the fastest duration any mode realized,
        folded by the :class:`~repro.broker.fleet.OracleFold` that
        :func:`~repro.broker.fleet.score_fleet` uses.
        """
        if site in self._folds:
            raise ShardError(f"site {site!r} folded twice")
        missing = [m for m in self.modes if m not in durations]
        extra = sorted(set(durations) - set(self.modes))
        if missing or extra:
            raise ShardError(
                f"site {site!r} duration streams do not match the plan "
                f"modes (missing {missing}, unexpected {extra})")
        rows = OracleFold.lockstep(
            [durations[m] for m in self.modes],
            ShardError(f"site {site!r} duration streams disagree on upload "
                       f"count"))
        fold = self._folds[site] = OracleFold(self.modes)
        n = fold.fold((site, row) for row in rows)
        if n == 0:
            raise ShardError(f"site {site!r} duration streams are empty")
        return n

    def fold_report(self, report: SiteReport) -> None:
        """Accumulate one site report's counters into the mode rollup."""
        if report.mode not in self._rollup:
            raise ShardError(
                f"report for site {report.site!r} carries mode "
                f"{report.mode!r}, not one of {list(self.modes)}")
        bucket = self._rollup[report.mode]
        for field in _REPORT_FIELDS:
            bucket[field] += int(getattr(report, field))

    # -- reduction -----------------------------------------------------------

    def score(self, sites: Sequence[str]) -> FleetScore:
        """Reduce the folded cells, summing in the given (plan) site order.

        *sites* must be exactly the folded sites; the explicit order is
        what makes the reduction independent of fold arrival order.
        """
        unfolded = [s for s in sites if s not in self._folds]
        surplus = sorted(set(self._folds) - set(sites))
        if unfolded or surplus:
            raise ShardError(
                f"cannot score: sites never folded {unfolded}, folded but "
                f"not requested {surplus}")
        total = OracleFold(self.modes)
        for site in sites:
            total.add(self._folds[site])
        if total.n == 0:
            raise ShardError("cannot score an empty aggregator")
        return total.score()

    def rollup(self) -> Dict[str, Dict[str, float]]:
        """Per-mode directory/probe aggregates from the folded reports."""
        out: Dict[str, Dict[str, float]] = {}
        for mode in self.modes:
            bucket = self._rollup[mode]
            uploads = bucket["n_uploads"]
            looked = bucket["directory_hits"] + bucket["directory_misses"]
            out[mode] = {
                "uploads": float(uploads),
                "probes_issued": float(bucket["probes_issued"]),
                "probes_per_upload": (bucket["probes_issued"] / uploads
                                      if uploads else 0.0),
                "directory_hits": float(bucket["directory_hits"]),
                "directory_misses": float(bucket["directory_misses"]),
                "hit_rate": (bucket["directory_hits"] / looked
                             if looked else 0.0),
                "warm_hits": float(bucket["directory_warm_hits"]),
                "warm_hit_rate": (bucket["directory_warm_hits"] / looked
                                  if looked else 0.0),
                "evictions": float(bucket["directory_evictions"]),
                "invalidations": float(bucket["invalidations"]),
                "admission_spills": float(bucket["admission_spills"]),
            }
        return out
