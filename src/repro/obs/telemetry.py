"""Campaign telemetry: the pool's cell-lifecycle event stream.

The campaign engine (``repro.campaign``) emits one :class:`TelemetryEvent`
per cell-lifecycle transition — started, finished, retried, quarantined,
answered-from-store — tagged with the pool's queue depth, the number of
in-flight workers, and the cell's wall time as measured *inside* the
worker (it rides the existing result pipe, so the parent never reads a
clock on the cell's behalf).  This module is sim-time/wall-clock free:
every timestamp in an event was measured by the campaign layer, which is
the sanctioned orchestration-side clock reader (lint rule SL403 pins
``repro.obs.profile`` as the only obs module allowed to read a clock).

:class:`TelemetryAggregator` folds the stream into ``repro_campaign_*``
metrics on a shared :class:`~repro.obs.metrics.MetricsRegistry` and keeps
a running :class:`ProgressSnapshot` that :func:`render_progress` turns
into the one-line view behind ``repro campaign status --watch`` and
``repro campaign run --progress``.

Telemetry is strictly observational: a campaign run with no sink attached
performs byte-identical work (enforced by ``tests/test_obs_overhead.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.metrics import DURATION_BUCKETS, MetricsRegistry

__all__ = [
    "EVENT_KINDS",
    "ProgressSnapshot",
    "TelemetryAggregator",
    "TelemetryEvent",
    "render_event",
    "render_progress",
]

#: Every lifecycle transition a campaign cell can go through.
EVENT_KINDS: Tuple[str, ...] = (
    "cell_started",      # an attempt began executing (serial or worker)
    "cell_finished",     # an attempt produced a payload (ok or model error)
    "cell_retried",      # a crash/timeout consumed one retry
    "cell_quarantined",  # crash/timeout budget exhausted; error record
    "cell_cached",       # answered from the result store, nothing ran
    "shard_warmed",      # a shard run preloaded a published snapshot
    "shard_published",   # a shard worker published a site report/snapshot
    "shard_merged",      # a shard merge published the fleet's directory
)

#: What a shard event's ``count`` counts (cell events carry no count).
_COUNT_NOUNS = {
    "shard_warmed": "entries",
    "shard_published": "site reports",
    "shard_merged": "entries",
}


@dataclass(frozen=True)
class TelemetryEvent:
    """One cell-lifecycle transition, as seen by the campaign engine.

    ``index`` is the cell's position in spec order; ``wall_s`` is the
    worker-measured wall time of the finished attempt (0 otherwise);
    ``queue_depth`` / ``running`` are the pool's backlog and in-flight
    counts at the instant the event fired; ``worker`` is the OS pid of
    the worker process (0 on the in-process serial path); ``count`` is
    the size of a shard step (warm or merged directory entries,
    published site reports), 0 on cell events.
    """

    kind: str
    cell: str
    index: int
    attempt: int = 1
    status: str = ""      # cell_finished: "ok" | "error"
    error_kind: str = ""  # retried/quarantined/model-error detail
    wall_s: float = 0.0
    queue_depth: int = 0
    running: int = 0
    worker: int = 0
    count: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ObservabilityError(
                f"unknown telemetry event kind {self.kind!r}; "
                f"have {EVENT_KINDS}")

    def to_dict(self) -> dict:
        """Pipe/JSON-safe view (primitives only)."""
        return {
            "kind": self.kind, "cell": self.cell, "index": self.index,
            "attempt": self.attempt, "status": self.status,
            "error_kind": self.error_kind, "wall_s": self.wall_s,
            "queue_depth": self.queue_depth, "running": self.running,
            "worker": self.worker, "count": self.count,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "TelemetryEvent":
        return cls(**record)


#: A telemetry sink: anything accepting one event per call.
TelemetrySink = Callable[[TelemetryEvent], None]


def as_sink(telemetry) -> Optional[TelemetrySink]:
    """Normalize a sink argument: None, a callable, or an aggregator."""
    if telemetry is None:
        return None
    emit = getattr(telemetry, "emit", None)
    if emit is not None:
        return emit
    if callable(telemetry):
        return telemetry
    raise ObservabilityError(
        f"telemetry sink must be callable or have .emit, got {telemetry!r}")


def reindexed(sink: TelemetrySink, index_map) -> TelemetrySink:
    """Wrap *sink* so pool-local indexes are rewritten to spec order."""

    def remap(ev: TelemetryEvent) -> None:
        sink(replace(ev, index=index_map[ev.index]))

    return remap


@dataclass(frozen=True)
class ProgressSnapshot:
    """Where a campaign stands, folded from the event stream."""

    total: int = 0        # expected cells (0 = unknown)
    started: int = 0      # attempts begun (retries count again)
    finished_ok: int = 0
    finished_error: int = 0
    retried: int = 0
    quarantined: int = 0
    cached: int = 0
    running: int = 0
    queue_depth: int = 0
    wall_s_total: float = 0.0
    last_cell: str = ""

    @property
    def done(self) -> int:
        """Cells with a final answer (ok, model-error, infra, or cached)."""
        return (self.finished_ok + self.finished_error
                + self.quarantined + self.cached)

    @property
    def errors(self) -> int:
        return self.finished_error + self.quarantined


class TelemetryAggregator:
    """Folds the event stream into metrics and a progress snapshot.

    Parameters
    ----------
    metrics:
        Registry receiving the ``repro_campaign_*`` series; a fresh
        enabled registry by default.  Instrument names are disjoint from
        the runner's own cell counters, so sharing the runner's registry
        never double-counts.
    on_event:
        Optional callback invoked after each event is folded — the live
        streaming hook (``campaign run --progress`` prints from here).
    keep_events:
        Retain the last N raw events for inspection/export (0 = none).
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 on_event: Optional[TelemetrySink] = None,
                 keep_events: int = 0):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.on_event = on_event
        self.keep_events = keep_events
        self.events: List[TelemetryEvent] = []
        self._snap = ProgressSnapshot()
        m = self.metrics
        self._m_events = m.counter(
            "repro_campaign_events_total",
            "Campaign telemetry events by lifecycle kind")
        self._m_wall = m.histogram(
            "repro_campaign_cell_wall_seconds",
            "Worker-measured wall time per finished cell attempt",
            buckets=DURATION_BUCKETS)
        self._m_queue = m.gauge(
            "repro_campaign_queue_depth_count",
            "Cells waiting for a pool slot at the last event")
        self._m_running = m.gauge(
            "repro_campaign_running_count",
            "Cell attempts in flight at the last event")
        self._m_hits = m.counter(
            "repro_campaign_store_hits_total",
            "Cells answered from the result store")
        self._m_misses = m.counter(
            "repro_campaign_store_misses_total",
            "Cells the store could not answer (first attempts executed)")

    def expect(self, total: int) -> None:
        """Declare how many cells the campaign will resolve in total."""
        self._snap = replace(self._snap, total=total)

    def emit(self, ev: TelemetryEvent) -> None:
        """Fold one event; safe to use directly as the pool sink."""
        s = self._snap
        kw = dict(running=ev.running, queue_depth=ev.queue_depth,
                  last_cell=ev.cell)
        if ev.kind == "cell_started":
            kw["started"] = s.started + 1
            if ev.attempt == 1:
                self._m_misses.inc()
        elif ev.kind == "cell_finished":
            if ev.status == "ok":
                kw["finished_ok"] = s.finished_ok + 1
            else:
                kw["finished_error"] = s.finished_error + 1
            kw["wall_s_total"] = s.wall_s_total + ev.wall_s
            self._m_wall.observe(ev.wall_s)
        elif ev.kind == "cell_retried":
            kw["retried"] = s.retried + 1
        elif ev.kind == "cell_quarantined":
            kw["quarantined"] = s.quarantined + 1
        elif ev.kind == "cell_cached":
            kw["cached"] = s.cached + 1
            self._m_hits.inc()
        self._snap = replace(s, **kw)
        self._m_events.inc(kind=ev.kind)
        self._m_queue.set(ev.queue_depth)
        self._m_running.set(ev.running)
        if self.keep_events:
            self.events.append(ev)
            if len(self.events) > self.keep_events:
                del self.events[:len(self.events) - self.keep_events]
        if self.on_event is not None:
            self.on_event(ev)

    def snapshot(self) -> ProgressSnapshot:
        return self._snap


def render_event(ev: TelemetryEvent) -> str:
    """One streaming log line per event (``campaign run --progress``)."""
    bits = [f"{ev.kind.split('_', 1)[1]:<11}", f"#{ev.index:<3}"]
    if ev.attempt > 1:
        bits.append(f"attempt {ev.attempt}")
    if ev.kind == "cell_finished":
        bits.append(f"{ev.status or 'ok'} in {ev.wall_s:.2f}s")
    elif ev.kind in ("cell_retried", "cell_quarantined") and ev.error_kind:
        bits.append(ev.error_kind)
    if ev.kind in _COUNT_NOUNS:
        bits.append(f"{ev.count} {_COUNT_NOUNS[ev.kind]}")
    if ev.queue_depth or ev.running:
        bits.append(f"[{ev.running} running, {ev.queue_depth} queued]")
    bits.append(ev.cell)
    return " ".join(bits)


def render_progress(snap: ProgressSnapshot, width: int = 30) -> str:
    """One-line progress view: bar, resolved counts, pool state."""
    total = snap.total or snap.done
    frac = snap.done / total if total else 0.0
    filled = int(round(frac * width))
    bar = "#" * filled + "." * (width - filled)
    line = (f"campaign [{bar}] {snap.done}/{total or '?'}"
            f"  ok {snap.finished_ok} err {snap.errors} cached {snap.cached}")
    if snap.running or snap.queue_depth:
        line += f"  | {snap.running} running, {snap.queue_depth} queued"
    if snap.wall_s_total:
        line += f"  | cell wall {snap.wall_s_total:.1f}s"
    return line
