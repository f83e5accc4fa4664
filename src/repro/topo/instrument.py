"""Observability for topology compilation.

:class:`TopoInstrumentation` bundles the three existing observability
surfaces for the compile pipeline: a ``repro_topo_*`` metric family on a
:class:`~repro.obs.metrics.MetricsRegistry`, per-phase wall-time sections
on a :class:`~repro.obs.profile.KernelProfiler` (the package's only
sanctioned wall clock), and optional :class:`~repro.obs.spans.SpanTracer`
spans so compile phases appear on the same timeline as transfers when a
world is built inside a traced simulation.

All members are optional; a default-constructed instance is a no-op, so
the compile pipeline carries no observability cost unless asked.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import KernelProfiler
from repro.obs.spans import SpanTracer

__all__ = ["TopoInstrumentation"]


class TopoInstrumentation:
    """Metrics + profiler sections + spans for topo build phases."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 profiler: Optional[KernelProfiler] = None,
                 spans: Optional[SpanTracer] = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self.profiler = profiler
        self.spans = spans
        m = self.metrics
        #: wall seconds per compile phase (labelled; needs a profiler —
        #: the registry itself never reads a clock)
        self.phase_seconds = m.histogram(
            "repro_topo_phase_seconds",
            "wall time of topology compile phases, by phase label")
        self.phases_total = m.counter(
            "repro_topo_phases_total", "compile phases entered, by phase label")
        self.nodes_count = m.gauge(
            "repro_topo_nodes_count", "nodes in the last compiled topology")
        self.links_count = m.gauge(
            "repro_topo_links_count", "links in the last compiled topology")
        self.sites_count = m.gauge(
            "repro_topo_sites_count", "sites in the last compiled topology")
        self.routes_count = m.gauge(
            "repro_topo_routes_count",
            "precompiled forwarding paths in the last compiled topology")
        self.next_hops = m.counter(
            "repro_topo_next_hops_total",
            "next-hop decisions of route compiles, by kind: computed, or "
            "reused from the router's next-hop memo; joined counts walks "
            "completed from a remembered rule-free suffix")
        self.cache_hits = m.counter(
            "repro_topo_route_cache_hits_total", "route-cache lookups served from disk")
        self.cache_misses = m.counter(
            "repro_topo_route_cache_misses_total", "route-cache lookups that recomputed")
        self.cache_corrupt = m.counter(
            "repro_topo_route_cache_corrupt_total",
            "route-cache entries rejected (bad checksum/version) and recomputed")

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Instrument one compile phase (span + profiler section + metrics)."""
        self.phases_total.inc(phase=name)
        span = (self.spans.span("topo.compile", f"phase:{name}")
                if self.spans is not None else None)
        if span is not None:
            span.__enter__()
        t0 = self.profiler.begin() if self.profiler is not None else None
        try:
            yield
        finally:
            if self.profiler is not None:
                elapsed = self.profiler.end_section(f"topo.compile.{name}", t0)
                if elapsed is not None:
                    self.phase_seconds.observe(elapsed, phase=name)
            if span is not None:
                span.__exit__(None, None, None)

    def record_shape(self, n_sites: int, n_nodes: int, n_links: int,
                     n_routes: int) -> None:
        """Publish the compiled world's headline sizes."""
        self.sites_count.set(float(n_sites))
        self.nodes_count.set(float(n_nodes))
        self.links_count.set(float(n_links))
        self.routes_count.set(float(n_routes))

    def record_next_hops(self, computed: int, reused: int, joined: int) -> None:
        """Publish one routes phase's next-hop decisions and suffix joins."""
        self.next_hops.inc(float(computed), kind="computed")
        self.next_hops.inc(float(reused), kind="reused")
        self.next_hops.inc(float(joined), kind="joined")
