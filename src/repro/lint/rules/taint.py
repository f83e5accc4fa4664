"""SL6xx — transitive-determinism taint over the whole-program call graph.

The per-file SL1xx rules only see nondeterminism written *in model
code*.  But the kernel reaches far beyond the model packages: a broker
process calls through ``core.selection`` into ``net``, and a helper in a
utility module three calls away can read the wall clock or seed a
generator from OS entropy.  These rules mark nondeterminism *sinks*
wherever they occur outside model code and convict any that are
reachable from model-package functions (the analysis entrypoints:
``Simulator`` process callables, ``World`` build paths, and everything
else in ``lint.config.model_packages`` — all of which live in those
packages).  Each finding prints the full call chain from an entrypoint
to the sink.

Sinks *inside* model packages are the per-file rules' jurisdiction
(SL101/SL103/SL104 already fail there); SL6xx exists for the transitive
case those rules cannot see.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.engine import GRAPH, rule

__all__ = []

#: Wall-clock reads, by fully qualified (post-import-resolution) name.
WALL_CLOCK_SINKS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Nondeterministically seeded randomness, unconditionally.
ENTROPY_SINKS = frozenset({
    "os.urandom", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbelow", "secrets.choice", "secrets.randbits",
})

#: Nondeterministic only when called with no arguments (OS-entropy seed).
ARGLESS_ENTROPY_SINKS = frozenset({"numpy.random.default_rng"})

_SCRATCH_KEY = "taint"


def _collect_sinks(graph) -> List[Tuple[str, int, str, str]]:
    """All (function fq, line, rule id, label) sinks outside model code."""
    sinks: List[Tuple[str, int, str, str]] = []
    for fq in sorted(graph.functions):
        fsum, fn = graph.functions[fq]
        if fsum.package in graph.config.model_packages:
            continue  # per-file SL1xx territory
        for edge in graph.out_edges.get(fq, []):
            if edge.kind != "external":
                continue
            if edge.target in WALL_CLOCK_SINKS:
                sinks.append((fq, edge.line, "SL601",
                              f"{edge.raw}() reads the wall clock"))
            elif edge.target in ENTROPY_SINKS:
                sinks.append((fq, edge.line, "SL602",
                              f"{edge.raw}() draws OS entropy"))
            elif (edge.target in ARGLESS_ENTROPY_SINKS and edge.site is not None
                  and edge.site.nargs + edge.site.nkw == 0 and not edge.site.star):
                sinks.append((fq, edge.line, "SL602",
                              f"argless {edge.raw}() seeds from OS entropy"))
        for line, kind in fn.sinks:
            if kind == "set-iter" and fn.has_value_return:
                sinks.append((fq, line, "SL603",
                              "hash-ordered set iteration feeds the return value"))
    return sinks


def _chain_to_entrypoint(graph, sink_fq: str) -> Optional[List[str]]:
    """Shortest call chain entrypoint -> ... -> sink function, or None.

    Deterministic: BFS levels are expanded in sorted order, so ties
    always break the same way regardless of dict/set history.
    """
    if graph.is_model(sink_fq):
        return [sink_fq]
    # Backward BFS over callers; next_hop[caller] = callee it was
    # discovered from, giving the forward chain on reconstruction.
    next_hop: Dict[str, str] = {}
    seen = {sink_fq}
    frontier = [sink_fq]
    while frontier:
        new_frontier: List[str] = []
        for node in frontier:
            for edge in sorted(graph.in_edges.get(node, []),
                               key=lambda e: (e.caller, e.line)):
                caller = edge.caller
                if caller in seen:
                    continue
                seen.add(caller)
                next_hop[caller] = node
                if graph.is_model(caller):
                    chain = [caller]
                    while chain[-1] != sink_fq:
                        chain.append(next_hop[chain[-1]])
                    return chain
                new_frontier.append(caller)
        frontier = sorted(new_frontier)
    return None


def _taint_findings(graph) -> List[Tuple[str, str, int, str]]:
    """(rule id, rel, line, message) for every convicted sink; memoized
    on the graph so SL601/SL602/SL603 share one reachability pass."""
    cached = graph.scratch.get(_SCRATCH_KEY)
    if cached is not None:
        return cached
    findings: List[Tuple[str, str, int, str]] = []
    for sink_fq, line, rule_id, label in _collect_sinks(graph):
        chain = _chain_to_entrypoint(graph, sink_fq)
        if chain is None:
            continue  # sink exists but no model-code path reaches it
        fsum, _ = graph.functions[sink_fq]
        path = " -> ".join(chain)
        findings.append((rule_id, fsum.rel, line, (
            f"{label}; reachable from model code via {path}"
        )))
    graph.scratch[_SCRATCH_KEY] = findings
    return findings


def _by_rule(graph, rule_id: str) -> Iterator[Tuple[str, int, str]]:
    for rid, rel, line, message in _taint_findings(graph):
        if rid == rule_id:
            yield rel, line, message


@rule("SL601", "wall-clock read reachable from model code", scope=GRAPH)
def transitive_wall_clock(graph) -> Iterator[Tuple[str, int, str]]:
    return _by_rule(graph, "SL601")


@rule("SL602", "OS-entropy randomness reachable from model code",
      scope=GRAPH)
def transitive_entropy_rng(graph) -> Iterator[Tuple[str, int, str]]:
    return _by_rule(graph, "SL602")


@rule("SL603", "hash-ordered iteration feeding a model-reachable return",
      scope=GRAPH)
def transitive_set_iteration(graph) -> Iterator[Tuple[str, int, str]]:
    return _by_rule(graph, "SL603")
