"""The shared route-directory service: snapshots behind two cache tiers.

``repro.shard`` workers do not talk to each other; they exchange route
recommendations through *published artifacts*.  This module provides the
substrate:

* :class:`DirectoryFileTier` — a directory of atomically written,
  name-addressed JSON documents.  The durable tier: every payload a
  worker publishes (a directory snapshot, a per-site report) lands here,
  and any later process — a sibling shard, a ``repro shard merge``, a
  whole new campaign warming from last week's run — can fetch it back.

* :class:`SharedDirectoryService` — the serving front: an in-memory LRU
  tier over the file tier, with hit/miss/eviction/staleness counters
  (``repro_shard_directory_*`` in :mod:`repro.obs`).  Fetches check the
  memory tier first, fall through to disk, and remember what they find;
  publishes write through both tiers.  A snapshot whose every entry has
  expired at the caller's sim time is *stale*: counted and withheld, so
  a fleet never warms from recommendations it would immediately evict.

* :class:`SiteReport` — the per-(site, policy) rollup a shard worker
  publishes next to its snapshot: directory and probe statistics the
  streaming aggregator folds without ever re-reading upload records.

Nothing here reads a clock: staleness is judged against the *sim* time
the caller passes in, and the LRU is ordered by access, not by wall
time — the service is as deterministic as the workers it serves.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.broker.directory import DirectorySnapshot
from repro.core.atomic import atomic_write_json, read_json_object
from repro.errors import ShardError
from repro.obs.metrics import MetricsRegistry

__all__ = ["DirectoryFileTier", "SharedDirectoryService", "SiteReport"]

#: Bump when the on-disk report shape changes incompatibly.
REPORT_VERSION = 1

#: Published names are path components; keep them boring on purpose.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ShardError(
            f"invalid published-artifact name {name!r} (want "
            f"letters/digits/._- only, not starting with a separator)")
    return name


class DirectoryFileTier:
    """Name-addressed JSON documents with atomic publishes.

    The durable tier of the shared directory service, and the transport
    for per-site reports.  Writes go through a temp file and
    ``os.replace``, so concurrent shard workers publishing the same name
    (which, being deterministic, always carry the same content) can race
    freely without a reader ever seeing a torn document.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def path_for(self, name: str) -> Path:
        return self.root / f"{_check_name(name)}.json"

    def publish(self, name: str, payload: Dict[str, object]) -> Path:
        """Atomically write *payload* under *name*; returns its path."""
        return atomic_write_json(self.path_for(name), payload,
                                 sort_keys=True, separators=(",", ":"),
                                 mkdir=True)

    def clean_tmp(self) -> int:
        """Sweep stale temp files left by killed writers; returns count.

        The atomic-write protocol's temp names end in ``.tmp`` (see
        :mod:`repro.core.atomic`), so the glob can never match a
        published ``*.json`` document — sweeping is always safe, even
        while other writers are racing.
        """
        if not self.root.is_dir():
            return 0
        swept = 0
        for stray in sorted(self.root.glob("*.tmp")):
            try:
                stray.unlink()
                swept += 1
            except OSError:
                pass  # a racing writer already published or swept it
        return swept

    def fetch(self, name: str) -> Optional[Dict[str, object]]:
        """The payload published under *name*, or None."""
        path = self.path_for(name)
        try:
            return read_json_object(path)
        except ValueError as exc:
            raise ShardError(f"corrupt published artifact {path}: {exc}") from exc

    def names(self) -> List[str]:
        """Every published name, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def __contains__(self, name: str) -> bool:
        return self.path_for(name).is_file()

    def __len__(self) -> int:
        return len(self.names())


@dataclass(frozen=True)
class SiteReport:
    """One site's fleet-unit rollup under one policy.

    Published by the shard worker that executed the unit, keyed by a
    partition-independent content name, and folded by
    :class:`~repro.shard.aggregate.FleetAggregator` — so hit rates and
    probes/upload aggregate without touching the upload records at all.
    ``snapshot`` carries the unit's final route directory (broker-kind
    policies only); ``warm_hash`` names the snapshot the unit warmed
    from ("" = cold start).
    """

    site: str
    mode: str
    seed: int
    warm_hash: str
    n_uploads: int
    probes_issued: int
    directory_hits: int
    directory_misses: int
    directory_evictions: int
    directory_warm_hits: int
    invalidations: int
    admission_spills: int
    snapshot: Optional[DirectorySnapshot] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": REPORT_VERSION,
            "site": self.site,
            "mode": self.mode,
            "seed": int(self.seed),
            "warm_hash": self.warm_hash,
            "n_uploads": int(self.n_uploads),
            "probes_issued": int(self.probes_issued),
            "directory_hits": int(self.directory_hits),
            "directory_misses": int(self.directory_misses),
            "directory_evictions": int(self.directory_evictions),
            "directory_warm_hits": int(self.directory_warm_hits),
            "invalidations": int(self.invalidations),
            "admission_spills": int(self.admission_spills),
            "snapshot": (None if self.snapshot is None
                         else self.snapshot.to_dict()),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "SiteReport":
        version = d.get("version")
        if version != REPORT_VERSION:
            raise ShardError(f"unsupported site-report version {version!r}")
        snapshot = d.get("snapshot")
        return cls(
            site=d["site"],
            mode=d["mode"],
            seed=int(d["seed"]),
            warm_hash=d["warm_hash"],
            n_uploads=int(d["n_uploads"]),
            probes_issued=int(d["probes_issued"]),
            directory_hits=int(d["directory_hits"]),
            directory_misses=int(d["directory_misses"]),
            directory_evictions=int(d["directory_evictions"]),
            directory_warm_hits=int(d["directory_warm_hits"]),
            invalidations=int(d["invalidations"]),
            admission_spills=int(d["admission_spills"]),
            snapshot=(None if snapshot is None
                      else DirectorySnapshot.from_dict(snapshot)),
        )


class SharedDirectoryService:
    """Two-tier snapshot cache: in-memory LRU over the file tier.

    The memory tier holds up to ``max_memory_snapshots`` deserialized
    snapshots, evicting least-recently-used (counted); misses fall
    through to :class:`DirectoryFileTier` and backfill.  Every outcome
    is counted both as a plain attribute (``memory_hits`` & co., so the
    service is observable with metrics disabled) and as a
    ``repro_shard_directory_*`` series in the given registry.
    """

    def __init__(self, root: Union[str, Path], max_memory_snapshots: int = 64,
                 metrics: Optional[MetricsRegistry] = None):
        if max_memory_snapshots < 1:
            raise ShardError(
                f"max_memory_snapshots must be >= 1, got {max_memory_snapshots}")
        self.tier = DirectoryFileTier(root)
        self.max_memory_snapshots = int(max_memory_snapshots)
        self._memory: "OrderedDict[str, DirectorySnapshot]" = OrderedDict()
        self.memory_hits = 0
        self.memory_misses = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.evictions = 0
        self.stale = 0
        self.publishes = 0
        registry = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self._m_tier = registry.counter(
            "repro_shard_directory_tier_total",
            "Shared-directory fetch outcomes, by cache tier")
        self._m_evictions = registry.counter(
            "repro_shard_directory_evictions_total",
            "Memory-tier snapshots evicted least-recently-used")
        self._m_stale = registry.counter(
            "repro_shard_directory_stale_total",
            "Snapshot fetches withheld because every entry had expired")
        self._m_publishes = registry.counter(
            "repro_shard_directory_publishes_total",
            "Snapshots published through the service")

    def __len__(self) -> int:
        """Snapshots resident in the memory tier."""
        return len(self._memory)

    def _remember(self, name: str, snapshot: DirectorySnapshot) -> None:
        self._memory[name] = snapshot
        self._memory.move_to_end(name)
        while len(self._memory) > self.max_memory_snapshots:
            self._memory.popitem(last=False)
            self.evictions += 1
            self._m_evictions.inc()

    def publish_snapshot(self, name: str, snapshot: DirectorySnapshot) -> str:
        """Write through both tiers; returns the snapshot content hash."""
        self.tier.publish(name, snapshot.to_dict())
        self._remember(name, snapshot)
        self.publishes += 1
        self._m_publishes.inc()
        return snapshot.content_hash()

    def fetch_snapshot(self, name: str,
                       now_s: float = 0.0) -> Optional[DirectorySnapshot]:
        """The published snapshot, or None (unknown name or fully stale).

        *now_s* is the fleet sim time the caller would warm at; a
        non-empty snapshot whose every entry has expired by then is
        counted as stale and withheld — fetching it again later never
        makes it fresher, but keeping the check here means callers
        cannot forget it.
        """
        snapshot = self._memory.get(name)
        if snapshot is not None:
            self._memory.move_to_end(name)
            self.memory_hits += 1
            self._m_tier.inc(tier="memory", outcome="hit")
        else:
            self.memory_misses += 1
            self._m_tier.inc(tier="memory", outcome="miss")
            payload = self.tier.fetch(name)
            if payload is None:
                self.disk_misses += 1
                self._m_tier.inc(tier="disk", outcome="miss")
                return None
            self.disk_hits += 1
            self._m_tier.inc(tier="disk", outcome="hit")
            snapshot = DirectorySnapshot.from_dict(payload)
            self._remember(name, snapshot)
        if len(snapshot) and now_s >= snapshot.max_expires_s:
            self.stale += 1
            self._m_stale.inc()
            return None
        return snapshot

    # -- site reports ride the same durable tier ---------------------------

    def publish_report(self, name: str, report: SiteReport) -> Path:
        return self.tier.publish(name, report.to_dict())

    def fetch_report(self, name: str) -> Optional[SiteReport]:
        payload = self.tier.fetch(name)
        return None if payload is None else SiteReport.from_dict(payload)

    def counters(self) -> Dict[str, int]:
        """The plain-attribute counters as one dict (for rendering)."""
        return {
            "memory_hits": self.memory_hits,
            "memory_misses": self.memory_misses,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "evictions": self.evictions,
            "stale": self.stale,
            "publishes": self.publishes,
        }
