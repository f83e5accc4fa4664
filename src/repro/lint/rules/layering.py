"""SL9xx — architecture-layering enforcement over the import graph.

The repo's package architecture is a DAG declared in
``LintConfig.layers`` (lowest layer first): ``units``/``errors`` at the
bottom, the simulation kernel above them, then the network model, the
cloud/transfer layers, orchestration, and finally ``lint`` and ``cli``
at the top.  A package may import same-layer or lower-layer packages —
never higher ones.  Keeping that discipline mechanical is what lets the
kernel stay importable in isolation and the linter stay out of model
code.

* **SL901** — upward import: a lower-layer package imports a
  higher-layer one, or a package imports a *restricted* package
  (``restricted_imports``, e.g. ``lint`` is importable only from
  ``cli``) it is not on the allow-list for.
* **SL902** — cross-package private-module import: ``repro.x._y`` is an
  implementation detail of ``x``; other packages must go through the
  public surface.
* **SL903** — module-level import cycle: mutually importing modules
  make initialization order load-bearing; one finding per strongly
  connected component.

Packages absent from the DAG are unconstrained, and an empty ``layers``
disables SL901 entirely, so small fixture trees stay clean by default.
The rules work off the raw per-file ``import_sites`` (not the resolved
alias table) so every flagged line is a real import statement.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.engine import graph_rule

__all__ = []


def _is_dunder(part: str) -> bool:
    return part.startswith("__") and part.endswith("__")


def _target_parts(graph, target: str) -> Optional[List[str]]:
    """Path components below the scan root for a project import target.

    ``repro.net.engine`` -> ``["net", "engine"]``; None for external
    imports (``numpy``) and for the bare root package itself.
    """
    parts = target.split(".")
    if parts[0] not in graph.roots or len(parts) < 2:
        return None
    return parts[1:]


def _importer_package(summary) -> Optional[str]:
    """The owning package of a scanned file; None for the root __init__
    (which legitimately re-exports from every layer)."""
    pkg = summary.package
    return None if pkg == "__init__" else pkg


# -- SL901 / SL902 ----------------------------------------------------------


@graph_rule("SL901", "import that violates the declared layer DAG")
def upward_import(graph) -> Iterator[Tuple[str, int, str]]:
    config = graph.config
    index = config.layer_index()
    restricted = config.restricted_imports
    for rel in sorted(graph.summaries):
        summary = graph.summaries[rel]
        importer = _importer_package(summary)
        if importer is None:
            continue
        for line, _bound, target, _module_scope in summary.import_sites:
            below = _target_parts(graph, target)
            if below is None:
                continue
            pkg = below[0]
            if pkg == importer:
                continue
            if pkg in index and importer in index \
                    and index[pkg] > index[importer]:
                yield rel, line, (
                    f"upward import: {importer!r} (layer {index[importer]}) "
                    f"imports {pkg!r} (layer {index[pkg]}); the layer DAG "
                    f"only allows same-layer or downward imports")
            elif pkg in restricted and importer not in restricted[pkg]:
                allowed = ", ".join(sorted(restricted[pkg]))
                yield rel, line, (
                    f"{importer!r} imports restricted package {pkg!r}, "
                    f"which only [{allowed}] may import")


@graph_rule("SL902", "cross-package import of a private module")
def private_module_import(graph) -> Iterator[Tuple[str, int, str]]:
    for rel in sorted(graph.summaries):
        summary = graph.summaries[rel]
        importer = _importer_package(summary)
        if importer is None:
            continue
        for line, _bound, target, _module_scope in summary.import_sites:
            below = _target_parts(graph, target)
            if below is None or below[0] == importer:
                continue
            private = [p for p in below[1:]
                       if p.startswith("_") and not _is_dunder(p)]
            if private:
                yield rel, line, (
                    f"`{target}` is private to package {below[0]!r} "
                    f"(module `{private[0]}` is underscore-prefixed); "
                    f"import through its public surface instead")


# -- SL903: module-level import cycles --------------------------------------


def _module_import_edges(graph) -> Dict[str, Dict[str, int]]:
    """module -> {imported project module -> first import line}.

    Module-scope imports only — a function-scope import does not run at
    initialization time and therefore cannot deadlock it.
    """
    edges: Dict[str, Dict[str, int]] = {}
    for rel in sorted(graph.summaries):
        summary = graph.summaries[rel]
        out = edges.setdefault(summary.module, {})
        for line, _bound, target, module_scope in summary.import_sites:
            if not module_scope:
                continue
            resolved = _resolve_module(graph, target)
            if resolved is None or resolved == summary.module:
                continue
            if resolved not in out or line < out[resolved]:
                out[resolved] = line
    return edges


def _resolve_module(graph, target: str) -> Optional[str]:
    """Longest prefix of *target* that names a scanned project module."""
    parts = target.split(".")
    if parts[0] not in graph.roots:
        return None
    for i in range(len(parts), 0, -1):
        candidate = ".".join(parts[:i])
        if candidate in graph.modules:
            return candidate
    return None


def _strongly_connected(edges: Dict[str, Dict[str, int]]) -> List[List[str]]:
    """SCCs with more than one module, each sorted, in sorted order.

    Iterative Tarjan with sorted adjacency, so component discovery is
    independent of dict insertion history.
    """
    order: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    sccs: List[List[str]] = []

    for root in sorted(edges):
        if root in order:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, i = work.pop()
            if i == 0:
                order[node] = low[node] = len(order)
                stack.append(node)
                on_stack[node] = True
            neighbors = sorted(edges.get(node, {}))
            advanced = False
            while i < len(neighbors):
                nxt = neighbors[i]
                i += 1
                if nxt not in order:
                    work.append((node, i))
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack.get(nxt):
                    low[node] = min(low[node], order[nxt])
            if advanced:
                continue
            if low[node] == order[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1:
                    sccs.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sorted(sccs)


@graph_rule("SL903", "module-level import cycle")
def import_cycle(graph) -> Iterator[Tuple[str, int, str]]:
    edges = _module_import_edges(graph)
    for component in _strongly_connected(edges):
        anchor = component[0]
        summary = graph.modules.get(anchor)
        if summary is None:
            continue
        in_cycle = {m for m in component if m in edges.get(anchor, {})}
        lines = sorted(edges[anchor][m] for m in sorted(in_cycle))
        line = lines[0] if lines else 1
        cycle = " -> ".join(component + [anchor])
        yield summary.rel, line, (
            f"module-level import cycle: {cycle}; break it with a "
            f"function-scope import or by moving the shared symbol down "
            f"a layer")
