"""SL10xx — cross-process concurrency-safety rules over the call graph.

Campaign cells run in forked pool children and shard workers run in
separate OS processes: every one of them gets a *copy* of module and
class state at spawn time, and nothing written afterwards ever flows
back.  The classic failure modes are silent — a memo dict that warms in
one child only, a results file half-written when a worker is killed, a
directory tier where the last writer clobbers a sibling's hosts, an RNG
whose state advances differently per child.  These rules compute the
*worker set* — every function reachable through the call graph from the
configured ``worker_entrypoints`` (pool ``child_main``, the payload
runner, ``ShardCell.run_measurement``) — and flag the hazards inside it:

* **SL1001** — worker-reachable code mutates module- or class-level
  state (``global`` rebinding, stores/mutating calls through a module
  binding or ``cls``); the mutation is invisible outside the child.
* **SL1002** — a durable write (``open(.., "w")``, ``write_text``,
  ``json.dump``, ``pickle.dump``, ``np.savez``) bypasses the sanctioned
  atomic-rename protocol in :mod:`repro.core.atomic`; a parallel reader
  can observe a torn file.  Hand-rolled tmp+``os.replace`` copies are
  flagged too.
* **SL1003** — a shared-tier read-modify-write: ``fetch_snapshot`` then
  ``publish_snapshot`` in one function with no freshest-wins
  ``DirectorySnapshot.merged`` between them; two racing shards each
  lose the other's writes.
* **SL1004** — an RNG crosses a process or cell boundary: a
  generator/registry pickled into a ``Process(...)`` spawn, handed to a
  worker entrypoint as a parameter, or streamed with a loop-invariant
  name so every cell advances the *same* generator.  Workers must
  re-derive streams from seeds (``RngRegistry``/``derive_seed``), never
  share generator state.

SL1002's protocol violations are mechanical, so it is a **warning** (and
fixable); the other three describe result-corrupting races and are
**errors**.  All sites come from the per-file summaries (warm cache runs
never re-parse); only the worker-set reachability pass and the
head-resolution against module bindings run here.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.lint.engine import GRAPH, rule
from repro.lint.findings import Severity
from repro.lint.graph.summary import rng_like_name

__all__ = ["worker_functions"]

_WORKERSET_KEY = "conc-workerset"

#: External call-edge targets that serialize a full document to disk —
#: the dump-style half of SL1002's durable-write sinks (``open``/
#: ``write_text``/``write_bytes`` shapes come from the summaries).
_DUMP_SINKS = frozenset({
    "json.dump", "pickle.dump", "numpy.savez", "numpy.savez_compressed",
})

#: External call-edge targets that implement the rename half of a
#: hand-rolled atomic-write protocol.
_RENAME_CALLS = frozenset({"os.replace", "os.rename"})

_MUTATION_KIND_LABEL = {
    "global": "rebinds module global",
    "store": "stores into module-level binding",
    "cls-store": "stores into class-level state",
    "mutcall": "mutates module-level binding in place via",
}


def worker_functions(graph) -> Dict[str, str]:
    """fq -> the configured worker entrypoint that reaches it.

    Deterministic forward BFS from ``config.worker_entrypoints`` (see
    :meth:`~repro.lint.graph.graphbuild.ProjectGraph.reachable_from`);
    memoized so the SL10xx rules share one reachability pass.
    """
    return graph.reachable_from(graph.config.worker_entrypoints,
                                _WORKERSET_KEY)


def _module_level_head(graph, fsum, head: str) -> bool:
    """*head* names module-level state (here or in a project module).

    Heads that are locals, parameters or closure cells were filtered at
    extraction/resolution time; what remains is resolved against the
    file's module-scope bindings and its import table.  Imports of
    non-project modules (``os``, ``numpy``) are not flagged — mutating
    foreign library state is outside this family's contract.
    """
    if head in fsum.module_globals or head in fsum.defs:
        return True
    target = fsum.imports.get(head)
    return target is not None and target.split(".", 1)[0] in graph.roots


@rule("SL1001", "worker-reachable mutation of module/class state",
      severity=Severity.ERROR, scope=GRAPH)
def worker_shared_state_mutation(graph) -> Iterator[Tuple[str, int, str]]:
    workers = worker_functions(graph)
    for fq in sorted(workers):
        fsum, fn = graph.functions[fq]
        where = f"in worker-reachable {fq} (from {workers[fq]})"
        for line, kind, head, detail in fn.mutations:
            if kind in ("store", "mutcall") \
                    and not _module_level_head(graph, fsum, head):
                continue  # closure cell / unresolvable head
            yield fsum.rel, line, (
                f"{_MUTATION_KIND_LABEL[kind]} `{detail}` {where}; pool "
                f"children and shard workers mutate a private copy that "
                f"never flows back — pass state explicitly or return it "
                f"in the payload")


def _write_sinks(graph, fq, fn) -> List[Tuple[int, str]]:
    """(line, description) for every durable-write sink in *fq*."""
    sinks: List[Tuple[int, str]] = []
    for line, kind, detail in fn.writes:
        if kind == "open-w":
            sinks.append((line, f"`open(..., {detail!r})`"))
        else:
            sinks.append((line, f"`{detail}(...)`"))
    for edge in graph.out_edges.get(fq, []):
        if edge.kind == "external" and edge.target in _DUMP_SINKS:
            sinks.append((edge.line, f"`{edge.raw}(...)`"))
    return sorted(sinks)


@rule("SL1002", "durable write outside the atomic-rename protocol",
      severity=Severity.WARNING, scope=GRAPH)
def non_atomic_durable_write(graph) -> Iterator[Tuple[str, int, str]]:
    workers = worker_functions(graph)
    exempt = graph.config.atomic_write_files
    for fq in sorted(graph.functions):
        fsum, fn = graph.functions[fq]
        if fsum.rel in exempt:
            continue
        sinks = _write_sinks(graph, fq, fn)
        if not sinks:
            continue
        hand_rolled = any(
            e.kind == "external" and e.target in _RENAME_CALLS
            for e in graph.out_edges.get(fq, []))
        if hand_rolled:
            for line, desc in sinks:
                yield fsum.rel, line, (
                    f"{fq} hand-rolls the tmp+rename protocol around "
                    f"{desc}; route the write through repro.core.atomic "
                    f"(atomic_write / atomic_write_text / "
                    f"atomic_write_json) instead of a local copy")
        elif fq in workers:
            for line, desc in sinks:
                yield fsum.rel, line, (
                    f"non-atomic durable write {desc} in worker-reachable "
                    f"{fq} (from {workers[fq]}); a racing reader can see "
                    f"a torn file — use repro.core.atomic")


@rule("SL1003", "unguarded read-modify-write on a shared tier",
      severity=Severity.ERROR, scope=GRAPH)
def unguarded_tier_read_modify_write(graph) -> Iterator[Tuple[str, int, str]]:
    for fq in sorted(graph.functions):
        fsum, fn = graph.functions[fq]
        fetch_line = None
        publish_line = None
        has_merge = False
        for site in fn.calls:
            if site.raw is None:
                continue
            tail = site.raw.rsplit(".", 1)[-1]
            if tail == "fetch_snapshot" and fetch_line is None:
                fetch_line = site.line
            elif tail == "publish_snapshot":
                if fetch_line is not None and site.line >= fetch_line:
                    publish_line = site.line
            elif tail == "merged":
                has_merge = True
        if publish_line is not None and not has_merge:
            yield fsum.rel, publish_line, (
                f"{fq} fetches a tier snapshot and publishes a mutated "
                f"copy without a freshest-wins DirectorySnapshot.merged "
                f"step; two racing shards each lose the other's entries "
                f"— merge the fetched snapshot before publishing")


def _entrypoint_functions(graph) -> List[str]:
    """fqs that *are* configured worker entrypoints (not just reachable)."""
    matches: List[str] = []
    for entry in sorted(graph.config.worker_entrypoints):
        suffix = f".{entry}"
        for fq in sorted(graph.functions):
            if fq == entry or fq.endswith(suffix):
                matches.append(fq)
    return matches


@rule("SL1004", "RNG state crosses a process or cell boundary",
      severity=Severity.ERROR, scope=GRAPH)
def rng_crosses_process_boundary(graph) -> Iterator[Tuple[str, int, str]]:
    workers = worker_functions(graph)
    for fq in sorted(graph.functions):
        fsum, fn = graph.functions[fq]
        for line, kind, name in fn.rng_sites:
            if kind == "spawn-arg":
                yield fsum.rel, line, (
                    f"{fq} pickles RNG-carrying `{name}` into a process "
                    f"spawn; generator state diverges between parent and "
                    f"child — pass a seed and re-derive with "
                    f"RngRegistry/derive_seed in the child")
            elif kind == "loop-stream" and fq in workers:
                yield fsum.rel, line, (
                    f"worker-reachable {fq} (from {workers[fq]}) streams "
                    f"`{name}` with a loop-invariant name; every "
                    f"iteration advances the same generator, so state "
                    f"silently crosses cells — derive a per-entity "
                    f"stream (e.g. an f-string name) or fork per cell")
    for fq in _entrypoint_functions(graph):
        fsum, fn = graph.functions[fq]
        for pname in fn.posparams + fn.kwonly:
            reason = rng_like_name(pname)
            if reason:
                yield fsum.rel, fn.line, (
                    f"worker entrypoint {fq} takes parameter `{pname}` "
                    f"({reason}): the generator is pickled across the "
                    f"process boundary with its state — take a seed and "
                    f"re-derive the stream inside the worker")
