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

Packages absent from the DAG are unconstrained, and an empty ``layers``
disables SL901 entirely, so small fixture trees stay clean by default.
The rules work off the raw per-file ``import_sites`` (not the resolved
alias table) so every flagged line is a real import statement.

Import cycles are not checked: the former SL903 never recorded a
finding in this tree, and a cycle that breaks initialization already
fails loudly at import time.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.lint.engine import GRAPH, rule

__all__ = []


def _is_dunder(part: str) -> bool:
    return part.startswith("__") and part.endswith("__")


def _cross_package_imports(graph) -> Iterator[Tuple[str, int, str, str,
                                                      List[str]]]:
    """``(rel, line, target, importer, below)`` per cross-package import.

    ``below`` is the target's path below the scan root
    (``repro.net.engine`` -> ``["net", "engine"]``).  External imports,
    the bare root package and the root ``__init__`` (which legitimately
    re-exports from every layer) are skipped.
    """
    for fsum in graph.summaries.values():  # in sorted-key order
        importer = fsum.package
        if importer == "__init__":
            continue
        for line, _bound, target in fsum.import_sites:
            parts = target.split(".")
            if parts[0] in graph.roots and len(parts) > 1 \
                    and parts[1] != importer:
                yield fsum.rel, line, target, importer, parts[1:]


@rule("SL901", "import that violates the declared layer DAG", scope=GRAPH)
def upward_import(graph) -> Iterator[Tuple[str, int, str]]:
    index = graph.config.layer_index()
    restricted = graph.config.restricted_imports
    for rel, line, _target, importer, below in _cross_package_imports(graph):
        pkg = below[0]
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


@rule("SL902", "cross-package import of a private module", scope=GRAPH)
def private_module_import(graph) -> Iterator[Tuple[str, int, str]]:
    for rel, line, target, _importer, below in _cross_package_imports(graph):
        private = [p for p in below[1:]
                   if p.startswith("_") and not _is_dunder(p)]
        if private:
            yield rel, line, (
                f"`{target}` is private to package {below[0]!r} "
                f"(module `{private[0]}` is underscore-prefixed); "
                f"import through its public surface instead")
