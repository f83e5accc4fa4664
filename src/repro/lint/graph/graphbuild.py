"""Project symbol table and import/call graph over file summaries.

The graph is built *only* from :class:`~repro.lint.graph.summary.FileSummary`
objects — never from ASTs — so a warm (cached) run reconstructs it without
parsing a single file.  Resolution handles module-level names, ``import``
and ``from``-import aliases (including relative imports and package
``__init__`` re-exports), ``self``/``cls`` method dispatch with a basic
MRO walk, class instantiation (edge to ``__init__``), and nested
functions.  Anything it cannot resolve — dynamic dispatch through local
variables, subscripted callables, ``super()`` — becomes an explicit
``unknown`` edge: recorded and counted in :meth:`ProjectGraph.stats`,
never silently dropped.
"""

from __future__ import annotations

import builtins
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.graph.summary import (
    MODULE_BODY,
    CallSite,
    FileSummary,
    FunctionSummary,
)

__all__ = ["Edge", "ProjectGraph", "build_graph"]

_BUILTIN_NAMES = frozenset(dir(builtins))

#: Resolution-chase depth limit (re-export chains, MRO walks).
_MAX_DEPTH = 12


@dataclass
class Edge:
    """One call (or nested-function definition) edge in the graph."""

    caller: str  # fq of the calling function
    line: int
    raw: Optional[str]  # callee as written; None for dynamic call syntax
    #: "project" (resolved to a project function), "external" (fully
    #: qualified non-project callable), "class" (project class with no
    #: ``__init__``), "defines" (nested function), or "unknown".
    kind: str
    target: Optional[str] = None  # fq function / external dotted name
    #: Positional-argument offset when binding call args to the target's
    #: parameter list (1 when ``self``/``cls`` is bound implicitly).
    offset: int = 0
    site: Optional[CallSite] = None

    def describe(self) -> str:
        label = self.target if self.target else (self.raw or "<dynamic>")
        return f"{self.caller} -> {label} [{self.kind}] @{self.line}"


# Internal symbol-location results.
_Loc = Tuple[str, ...]  # ("func", fq, offset) | ("class", module, name) | ...


class ProjectGraph:
    """Symbol table + call graph for one analyzed tree."""

    def __init__(self, summaries: Dict[str, FileSummary],
                 config: Optional[LintConfig] = None):
        self.config = config or DEFAULT_CONFIG
        #: rel (the scanned path, when several roots are scanned) ->
        #: summary, in sorted-key order.
        self.summaries: Dict[str, FileSummary] = dict(
            sorted(summaries.items(), key=lambda kv: kv[0]))
        self.modules: Dict[str, FileSummary] = {
            s.module: s for s in self.summaries.values()}
        #: Top components of project module names ("repro", ...).
        self.roots = frozenset(m.split(".", 1)[0] for m in self.modules)
        self._roots = self.roots
        #: fq -> (file summary, function summary)
        self.functions: Dict[str, Tuple[FileSummary, FunctionSummary]] = {}
        for fsum in self.summaries.values():
            for fn in fsum.functions:
                self.functions[f"{fsum.module}.{fn.qname}"] = (fsum, fn)
        self.edges: List[Edge] = []
        self.out_edges: Dict[str, List[Edge]] = {}
        self.in_edges: Dict[str, List[Edge]] = {}
        self._build_edges()
        #: Per-rule analysis scratch (memoized results), not serialized.
        self.scratch: Dict[str, object] = {}

    # -- public queries -----------------------------------------------------

    def package_of(self, fq: str) -> str:
        return self.functions[fq][0].package

    def is_model(self, fq: str) -> bool:
        return self.package_of(fq) in self.config.model_packages

    def entrypoints(self) -> List[str]:
        """Kernel-facing analysis roots: every model-package function."""
        return [fq for fq in sorted(self.functions) if self.is_model(fq)]

    @property
    def unknown_edges(self) -> List[Edge]:
        return [e for e in self.edges if e.kind == "unknown"]

    def resolve_raw(self, caller_fq: str, raw: Optional[str]) -> Optional[Edge]:
        """The resolved edge for *raw* as called from *caller_fq*."""
        for edge in self.out_edges.get(caller_fq, []):
            if edge.raw == raw and edge.kind != "defines":
                return edge
        return None

    def reachable_from(self, entrypoints, scratch_key: str) -> Dict[str, str]:
        """fq -> the configured entrypoint that reaches it.

        Deterministic forward BFS over resolved project call edges and
        nested-function definitions; entrypoints are dotted paths
        relative to the root package (``sim.kernel.Simulator.run``
        matches ``repro.sim.kernel.Simulator.run``) and the
        lexicographically first entrypoint wins ties.  Memoized on the
        graph under *scratch_key*, so the rules of one family share a
        single reachability pass (the SL10xx worker set).
        """
        cached = self.scratch.get(scratch_key)
        if cached is not None:
            return cached
        reached: Dict[str, str] = {}
        frontier: List[str] = []
        for entry in sorted(entrypoints):
            suffix = f".{entry}"
            for fq in sorted(self.functions):
                if (fq == entry or fq.endswith(suffix)) and fq not in reached:
                    reached[fq] = entry
                    frontier.append(fq)
        while frontier:
            new_frontier: List[str] = []
            for fq in frontier:
                for edge in sorted(self.out_edges.get(fq, []),
                                   key=lambda e: (e.target or "", e.line)):
                    if edge.kind not in ("project", "defines"):
                        continue
                    target = edge.target
                    if target is None or target in reached \
                            or target not in self.functions:
                        continue
                    reached[target] = reached[fq]
                    new_frontier.append(target)
            frontier = sorted(new_frontier)
        self.scratch[scratch_key] = reached
        return reached

    # -- construction -------------------------------------------------------

    def _build_edges(self) -> None:
        for fsum in self.summaries.values():
            for fn in fsum.functions:
                caller_fq = f"{fsum.module}.{fn.qname}"
                for name in sorted(fn.nested):
                    self._add(Edge(caller_fq, fn.line, name, "defines",
                                   target=f"{fsum.module}.{fn.nested[name]}"))
                for site in fn.calls:
                    self._add(self._resolve_site(caller_fq, fsum, fn, site))

    def _add(self, edge: Edge) -> None:
        self.edges.append(edge)
        self.out_edges.setdefault(edge.caller, []).append(edge)
        if edge.kind in ("project", "defines") and edge.target:
            self.in_edges.setdefault(edge.target, []).append(edge)

    def _resolve_site(self, caller_fq: str, fsum: FileSummary,
                      fn: FunctionSummary, site: CallSite) -> Edge:
        raw = site.raw
        unknown = Edge(caller_fq, site.line, raw, "unknown", site=site)
        if raw is None:
            return unknown

        # ``Ctor().method()``: resolve the constructor to a class, then
        # dispatch the method through the MRO.
        if "()." in raw:
            ctor_raw, _, method = raw.partition("().")
            if "." in method or site.local_head:
                return unknown
            ref = self._ctor_class(fsum, fn, ctor_raw)
            if ref is None:
                return unknown
            loc = self._method_in(ref[0], ref[1], method)
            if loc is None:
                return unknown
            mod2, qname = loc
            callee = self.functions[f"{mod2}.{qname}"][1]
            offset = 1 if callee.implicit_first_param else 0
            return Edge(caller_fq, site.line, raw, "project",
                        target=f"{mod2}.{qname}", offset=offset, site=site)

        parts = raw.split(".")
        head = parts[0]

        # self.method() / cls.method() inside a class body.
        if head in ("self", "cls") and fn.cls is not None:
            if len(parts) != 2:
                return unknown  # attribute-of-attribute: dynamic
            loc = self._method_in(fsum.module, fn.cls, parts[1])
            if loc is not None:
                mod, qname = loc
                target = f"{mod}.{qname}"
                callee = self.functions[target][1]
                offset = 1 if callee.implicit_first_param else 0
                return Edge(caller_fq, site.line, raw, "project",
                            target=target, offset=offset, site=site)
            return unknown

        # A nested function defined in this very function.
        if head in fn.nested and len(parts) == 1:
            return Edge(caller_fq, site.line, raw, "project",
                        target=f"{fsum.module}.{fn.nested[head]}", site=site)

        if site.local_head:
            return unknown  # dynamic dispatch through a local binding

        if head in fsum.defs:
            return self._edge_from_loc(
                self._locate_symbol(fsum.module, parts, 0), caller_fq, site)

        if head in fsum.imports:
            fq = ".".join([fsum.imports[head]] + parts[1:])
            return self._edge_from_loc(self._locate(fq), caller_fq, site)

        for star_mod in fsum.star_imports:
            loc = self._locate(f"{star_mod}.{raw}")
            if loc[0] in ("func", "class"):
                return self._edge_from_loc(loc, caller_fq, site)

        if head in _BUILTIN_NAMES:
            return Edge(caller_fq, site.line, raw, "external",
                        target=f"builtins.{raw}", site=site)
        return unknown

    def _edge_from_loc(self, loc: _Loc, caller_fq: str, site: CallSite) -> Edge:
        kind = loc[0]
        if kind == "func":
            _, fq, offset = loc
            return Edge(caller_fq, site.line, site.raw, "project",
                        target=fq, offset=offset, site=site)
        if kind == "class":
            _, mod, name = loc
            return Edge(caller_fq, site.line, site.raw, "class",
                        target=f"{mod}.{name}", site=site)
        if kind == "external":
            return Edge(caller_fq, site.line, site.raw, "external",
                        target=loc[1], site=site)
        return Edge(caller_fq, site.line, site.raw, "unknown", site=site)

    # -- symbol location ----------------------------------------------------

    def _locate(self, fq: str, depth: int = 0) -> _Loc:
        """Locate a fully qualified dotted name in the project."""
        if depth > _MAX_DEPTH:
            return ("unknown", fq)
        parts = fq.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:i])
            if mod in self.modules:
                return self._locate_symbol(mod, parts[i:], depth)
        if parts[0] in self._roots:
            return ("unknown", fq)  # project-shaped but not found
        return ("external", fq)

    def _locate_symbol(self, mod: str, rest: List[str], depth: int) -> _Loc:
        """Locate the symbol path *rest* inside module *mod*."""
        fsum = self.modules[mod]
        if not rest:
            return ("unknown", mod)
        sym = rest[0]
        if sym in fsum.defs:
            if fsum.defs[sym] == "func":
                if len(rest) == 1:
                    return ("func", f"{mod}.{sym}", 0)
                return ("unknown", f"{mod}.{'.'.join(rest)}")
            # A class: instantiation or Class.method reference.
            if len(rest) == 1:
                loc = self._method_in(mod, sym, "__init__")
                if loc is not None:
                    m2, qname = loc
                    return ("func", f"{m2}.{qname}", 1)
                return ("class", mod, sym)
            if len(rest) == 2:
                loc = self._method_in(mod, sym, rest[1])
                if loc is not None:
                    m2, qname = loc
                    callee = self.functions[f"{m2}.{qname}"][1]
                    offset = 1 if "classmethod" in callee.decorators else 0
                    return ("func", f"{m2}.{qname}", offset)
            return ("unknown", f"{mod}.{'.'.join(rest)}")
        if sym in fsum.imports:
            fq = ".".join([fsum.imports[sym]] + rest[1:])
            return self._locate(fq, depth + 1)
        for star_mod in fsum.star_imports:
            if star_mod in self.modules:
                loc = self._locate_symbol(star_mod, rest, depth + 1)
                if loc[0] in ("func", "class"):
                    return loc
        return ("unknown", f"{mod}.{'.'.join(rest)}")

    def _method_in(self, mod: str, clsname: str, method: str,
                   depth: int = 0) -> Optional[Tuple[str, str]]:
        """(module, qname) of *method* on class *clsname*, walking bases."""
        if depth > _MAX_DEPTH or mod not in self.modules:
            return None
        fsum = self.modules[mod]
        cinfo = fsum.classes.get(clsname)
        if cinfo is None:
            return None
        if method in cinfo["methods"]:
            return (mod, f"{clsname}.{method}")
        for base_raw in cinfo["bases"]:
            base = self._class_ref(mod, base_raw, depth + 1)
            if base is not None:
                found = self._method_in(base[0], base[1], method, depth + 1)
                if found is not None:
                    return found
        return None

    def _ctor_class(self, fsum: FileSummary, fn: FunctionSummary,
                    ctor_raw: str) -> Optional[Tuple[str, str]]:
        """Resolve the ``Ctor`` of a ``Ctor().method()`` call to a class."""
        parts = ctor_raw.split(".")
        head = parts[0]
        if head in ("self", "cls") or head in fn.nested:
            return None
        loc: Optional[_Loc] = None
        if head in fsum.defs:
            loc = self._locate_symbol(fsum.module, parts, 0)
        elif head in fsum.imports:
            loc = self._locate(".".join([fsum.imports[head]] + parts[1:]))
        else:
            for star_mod in fsum.star_imports:
                cand = self._locate(f"{star_mod}.{ctor_raw}")
                if cand[0] in ("func", "class"):
                    loc = cand
                    break
        if loc is None:
            return None
        if loc[0] == "class":
            return (loc[1], loc[2])
        if loc[0] == "func" and loc[1].endswith(".__init__") and loc[2] == 1:
            fq_init = loc[1]
            return (fq_init.rsplit(".", 2)[0], fq_init.split(".")[-2])
        return None

    def _class_ref(self, mod: str, raw: str,
                   depth: int) -> Optional[Tuple[str, str]]:
        """Resolve a raw base-class spelling to (module, class name)."""
        fsum = self.modules[mod]
        parts = raw.split(".")
        head = parts[0]
        if head in fsum.defs and fsum.defs[head] == "class" and len(parts) == 1:
            return (mod, head)
        if head in fsum.imports:
            fq = ".".join([fsum.imports[head]] + parts[1:])
            loc = self._locate(fq, depth)
            if loc[0] == "class":
                return (loc[1], loc[2])
            if loc[0] == "func" and loc[2] == 1:
                # Resolved through to __init__; recover the class.
                fq_init = loc[1]
                mod2 = fq_init.rsplit(".", 2)[0]
                clsname = fq_init.split(".")[-2]
                return (mod2, clsname)
        return None

    # -- stats --------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Deterministic size/shape counters for reports and the CLI."""
        kinds: Dict[str, int] = {}
        for e in self.edges:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        return {
            "files": len(self.summaries),
            "modules": len(self.modules),
            "functions": len(self.functions),
            "call_edges": len(self.edges),
            "project_edges": kinds.get("project", 0),
            "external_edges": kinds.get("external", 0),
            "unknown_edges": kinds.get("unknown", 0),
            "entrypoints": len(self.entrypoints()),
        }


def build_graph(summaries: Dict[str, FileSummary],
                config: Optional[LintConfig] = None) -> ProjectGraph:
    """Construct the project call graph from per-file summaries."""
    return ProjectGraph(summaries, config)
