"""The route directory: a TTL'd recommendation cache with invalidation.

The directory is the broker's serving tier.  A lookup is O(1) on
``(client site, provider, size class)``; a hit returns the cached route
without touching the network, a miss sends the caller back to the shared
history estimates (and the resulting recommendation is installed, so the
next client in the same cohort hits).

Entries leave the directory three ways, mirroring how real control
planes lose confidence in cached answers:

* **expiry** — every entry carries ``installed_s + ttl_s``; lookups
  lazily evict entries past their deadline (counted in
  ``evictions`` / ``repro_broker_directory_evictions_total``),
* **dead-route invalidation** — a :class:`~repro.core.monitor.BottleneckMonitor`
  dead-route event drops every entry recommending that route,
* **policy-anomaly invalidation** — a ``routeviews`` control/forwarding
  divergence on a client's direct path drops that pair's direct entries,
* **supersession** — a transfer report that dethrones the cached route in
  the shared history drops that one cohort's entry early.

The directory is also *serializable*: :meth:`RouteDirectory.snapshot`
exports the live entries as a :class:`DirectorySnapshot` (canonical
JSON, content-hashed) and :meth:`RouteDirectory.preload` warms a fresh
directory from one — the protocol ``repro.shard`` uses to share route
recommendations across shard workers instead of re-probing cold.
Snapshots merge deterministically (:meth:`DirectorySnapshot.merged`):
freshest-wins by sim-time ``installed_s``, ties resolved by merge order
— exactly the supersession rule :meth:`install` applies in-process.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.identity import content_key
from repro.core.world import World
from repro.errors import BrokerError
from repro.units import mb

from repro.broker.config import BrokerConfig

__all__ = ["size_class", "DirectoryEntry", "DirectorySnapshot",
           "RouteDirectory"]

#: Bump when the snapshot wire shape changes incompatibly.
SNAPSHOT_VERSION = 1


def size_class(size_bytes: int, edges_mb: Tuple[float, ...]) -> str:
    """Bucket an upload size into the directory's class label.

    Labels are human-readable and stable: ``"le8MB"``, ``"le64MB"``,
    ``"gt64MB"`` for the default edges.
    """
    if size_bytes <= 0:
        raise BrokerError("size must be positive")
    for edge in edges_mb:
        if size_bytes <= mb(edge):
            return f"le{edge:g}MB"
    return f"gt{edges_mb[-1]:g}MB"


@dataclass(frozen=True)
class DirectoryEntry:
    """One cached recommendation."""

    client_site: str
    provider_name: str
    size_class: str
    route_descr: str
    #: Sim time the entry was installed (drives the staleness metric).
    installed_s: float
    #: Sim time past which lookups treat the entry as gone.
    expires_s: float
    #: What produced the recommendation: "probe" | "history".
    source: str

    def age_s(self, now: float) -> float:
        return now - self.installed_s

    @property
    def cohort(self) -> Tuple[str, str, str]:
        """The directory key this entry serves."""
        return (self.client_site, self.provider_name, self.size_class)


@dataclass(frozen=True)
class DirectorySnapshot:
    """A serializable view of a route directory's live entries.

    The exchange format between shard workers and the shared directory
    tiers: canonical (JSON-able, content-hashed) and mergeable.  Entry
    times are *fleet sim-time* — every fleet world starts its clock at
    zero, so ``installed_s`` values from different workers are directly
    comparable and freshest-wins merging is well defined.
    """

    entries: Tuple[DirectoryEntry, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def max_expires_s(self) -> float:
        """Sim time past which the snapshot warms nothing at all."""
        return max((e.expires_s for e in self.entries), default=0.0)

    def restricted(self, pairs: Iterable[Tuple[str, str]]) -> "DirectorySnapshot":
        """The sub-snapshot serving only *(client, provider)* pairs."""
        served = frozenset(pairs)
        return DirectorySnapshot(tuple(
            e for e in self.entries
            if (e.client_site, e.provider_name) in served))

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON shape; equal dicts <=> identical snapshots."""
        return {
            "version": SNAPSHOT_VERSION,
            "entries": [asdict(e) for e in self.entries],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "DirectorySnapshot":
        version = d.get("version")
        if version != SNAPSHOT_VERSION:
            raise BrokerError(
                f"unsupported directory snapshot version {version!r}")
        return cls(tuple(DirectoryEntry(**e) for e in d["entries"]))

    def content_hash(self) -> str:
        return content_key(self.to_dict())

    @classmethod
    def merged(cls, snapshots: Sequence["DirectorySnapshot"]) -> "DirectorySnapshot":
        """Deterministic fold of snapshots, freshest-wins per cohort.

        For each ``(client, provider, size class)`` key the entry with
        the latest ``installed_s`` survives; on a tie the later snapshot
        in *snapshots* wins — the same supersession rule
        :meth:`RouteDirectory.install` applies in-process, where a newer
        install replaces the cohort's entry unconditionally.  The fold
        is a pure function of the input order, so callers pass snapshots
        in a deterministic (e.g. plan-site) order.
        """
        best: Dict[Tuple[str, str, str], DirectoryEntry] = {}
        for snap in snapshots:
            for entry in snap.entries:
                cur = best.get(entry.cohort)
                if cur is None or entry.installed_s >= cur.installed_s:
                    best[entry.cohort] = entry
        return cls(tuple(best[k] for k in sorted(best)))


class RouteDirectory:
    """TTL'd recommendation cache keyed by (client, provider, size class)."""

    def __init__(self, world: World, config: Optional[BrokerConfig] = None):
        self.world = world
        self.config = config if config is not None else BrokerConfig()
        self._entries: Dict[Tuple[str, str, str], DirectoryEntry] = {}
        #: cohort keys installed by :meth:`preload` (not yet re-installed
        #: by this world's own control plane): the "warm tier" of the
        #: serving path, tracked so shard rollups can report how much of
        #: the hit rate a shared snapshot bought.
        self._warm_keys: set = set()
        #: plain counters (not just metrics) so fleet results stay
        #: self-contained even with the registry disabled
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: lazy TTL expiries observed by lookups (satellite accounting:
        #: invalidations never included these)
        self.evictions = 0
        #: hits served by a preloaded (warm) entry
        self.warm_hits = 0
        metrics = world.metrics
        self._m_hits = metrics.counter(
            "repro_broker_directory_hits_total", "Directory lookups served from cache")
        self._m_misses = metrics.counter(
            "repro_broker_directory_misses_total", "Directory lookups that missed")
        self._m_invalidations = metrics.counter(
            "repro_broker_directory_invalidations_total",
            "Directory entries dropped before expiry, by reason")
        self._m_evictions = metrics.counter(
            "repro_broker_directory_evictions_total",
            "Directory entries lazily expired at lookup time")
        # Surface the eviction series at zero: a fleet with no expiries
        # should still render the counter (e.g. `--metrics -` tables), so
        # "no evictions" is distinguishable from "not instrumented".
        self._m_evictions.inc(0)
        self._m_warm_hits = metrics.counter(
            "repro_broker_directory_warm_hits_total",
            "Directory hits served by preloaded (warm-snapshot) entries")
        self._m_entries = metrics.gauge(
            "repro_broker_directory_entries_count", "Live directory entries")

    def _key(self, client_site: str, provider_name: str,
             size_bytes: int) -> Tuple[str, str, str]:
        return (client_site, provider_name,
                size_class(size_bytes, self.config.size_class_edges_mb))

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_ratio(self) -> float:
        looked = self.hits + self.misses
        return self.hits / looked if looked else 0.0

    @property
    def warm_hit_ratio(self) -> float:
        """Fraction of all lookups served by preloaded (warm) entries."""
        looked = self.hits + self.misses
        return self.warm_hits / looked if looked else 0.0

    def lookup(self, client_site: str, provider_name: str,
               size_bytes: int) -> Optional[DirectoryEntry]:
        """The live cached recommendation, or None (counted as a miss)."""
        key = self._key(client_site, provider_name, size_bytes)
        entry = self._entries.get(key)
        now = self.world.sim.now
        if entry is not None and now >= entry.expires_s:
            del self._entries[key]
            self._warm_keys.discard(key)
            self.evictions += 1
            self._m_evictions.inc(client=client_site, provider=provider_name)
            self._m_entries.set(len(self._entries))
            self.world.tracer.emit(now, "broker.directory", "entry_expired",
                                   client=client_site, provider=provider_name,
                                   size_class=key[2], route=entry.route_descr)
            entry = None
        if entry is None:
            self.misses += 1
            self._m_misses.inc(client=client_site, provider=provider_name)
            return None
        self.hits += 1
        self._m_hits.inc(client=client_site, provider=provider_name)
        if key in self._warm_keys:
            self.warm_hits += 1
            self._m_warm_hits.inc(client=client_site, provider=provider_name)
        return entry

    def peek(self, client_site: str, provider_name: str,
             size_bytes: int) -> Optional[DirectoryEntry]:
        """Like :meth:`lookup` but off the books: no eviction, no counters.

        The broker's report path uses it to see what a cohort is being
        told without perturbing the hit-rate accounting.
        """
        key = self._key(client_site, provider_name, size_bytes)
        entry = self._entries.get(key)
        if entry is not None and self.world.sim.now >= entry.expires_s:
            return None
        return entry

    def install(self, client_site: str, provider_name: str, size_bytes: int,
                route_descr: str, source: str) -> DirectoryEntry:
        """Cache a recommendation; replaces any entry under the same key."""
        key = self._key(client_site, provider_name, size_bytes)
        now = self.world.sim.now
        entry = DirectoryEntry(
            client_site=client_site,
            provider_name=provider_name,
            size_class=key[2],
            route_descr=route_descr,
            installed_s=now,
            expires_s=now + self.config.ttl_s,
            source=source,
        )
        self._entries[key] = entry
        self._warm_keys.discard(key)
        self._m_entries.set(len(self._entries))
        self.world.tracer.emit(now, "broker.directory", "entry_installed",
                               client=client_site, provider=provider_name,
                               size_class=key[2], route=route_descr,
                               source=source)
        return entry

    def _drop(self, keys: List[Tuple[str, str, str]], reason: str) -> int:
        for key in keys:
            del self._entries[key]
            self._warm_keys.discard(key)
        if keys:
            self.invalidations += len(keys)
            self._m_invalidations.inc(len(keys), reason=reason)
            self._m_entries.set(len(self._entries))
            self.world.tracer.emit(self.world.sim.now, "broker.directory",
                                   "invalidated", reason=reason,
                                   entries=len(keys))
        return len(keys)

    def invalidate_entry(self, client_site: str, provider_name: str,
                         size_bytes: int, reason: str = "superseded") -> int:
        """Drop one cohort's entry (fresh evidence dethroned its route)."""
        key = self._key(client_site, provider_name, size_bytes)
        return self._drop([key] if key in self._entries else [], reason)

    def invalidate_route(self, route_descr: str, reason: str = "dead_route") -> int:
        """Drop every entry recommending *route_descr*; returns the count."""
        doomed = [k for k, e in self._entries.items()
                  if e.route_descr == route_descr]
        return self._drop(doomed, reason)

    def invalidate_pair_direct(self, client_site: str, provider_name: str,
                               reason: str = "policy_anomaly") -> int:
        """Drop the pair's *direct* entries (an anomalous forwarding path)."""
        doomed = [k for k, e in self._entries.items()
                  if k[0] == client_site and k[1] == provider_name
                  and e.route_descr == "direct"]
        return self._drop(doomed, reason)

    def entries(self) -> List[DirectoryEntry]:
        """Live entries in deterministic key order."""
        return [self._entries[k] for k in sorted(self._entries)]

    # -- the snapshot protocol (shared-directory serving) ------------------

    def snapshot(self) -> DirectorySnapshot:
        """Serialize the live entries (deterministic key order).

        Entries are exported verbatim — sim times included — so a
        snapshot published by one fleet world can warm another on the
        same fleet timeline and still merge freshest-wins correctly.
        """
        return DirectorySnapshot(tuple(self.entries()))

    def preload(self, snapshot: DirectorySnapshot) -> Tuple[int, int]:
        """Warm the directory from a snapshot; ``(loaded, stale)`` counts.

        Entries already expired at the current sim time are skipped (and
        counted as *stale*); the rest are installed verbatim under their
        recorded ``installed_s`` / ``expires_s`` and flagged as the warm
        tier, so subsequent hits can be attributed to the snapshot.  An
        entry's cohort key is taken from its recorded ``size_class`` —
        the snapshot and this directory must share the same class edges,
        which the broker's config identity guarantees.
        """
        now = self.world.sim.now
        loaded = stale = 0
        for entry in snapshot.entries:
            if now >= entry.expires_s:
                stale += 1
                continue
            self._entries[entry.cohort] = entry
            self._warm_keys.add(entry.cohort)
            loaded += 1
        if loaded:
            self._m_entries.set(len(self._entries))
        self.world.tracer.emit(now, "broker.directory", "warmed",
                               loaded=loaded, stale=stale)
        return loaded, stale
