"""Per-file analysis summaries — the unit of whole-program analysis.

A :class:`FileSummary` is everything the cross-file passes need to know
about one module: its import table, the functions it defines (with the
calls they make, any locally detected nondeterminism sinks, and the
shared-state, durable-write and RNG-escape sites of the concurrency
rules), its classes, and its suppression comments.  Summaries are
plain-JSON serializable, which is what makes the incremental cache
(:mod:`repro.lint.graph.cache`) possible: a warm run never re-parses an
unchanged file — the whole-program graph is rebuilt from cached
summaries alone.

Callee terms
------------

While walking a function body the summarizer tracks, per local name,
the *callee term* of the value last bound to it: ``["c", "pkg.helper"]``
for the result of calling ``pkg.helper``, ``None`` when unknown.  The
SL1004 RNG-escape sites use it to tell a name bound from an RNG
constructor or stream apart from any other local.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lint.context import dotted_name, is_setish, parse_suppressions

__all__ = [
    "SUMMARY_VERSION",
    "CallSite",
    "FunctionSummary",
    "FileSummary",
    "MODULE_BODY",
    "rng_like_name",
    "summarize_source",
    "summarize_tree",
]

#: Bump whenever the summary schema or extraction logic changes: the
#: incremental cache keys on it, so stale summaries are never reused.
#: v2: hot-path perf sites, import sites, exports and reference tables
#: for the SL8xx/SL9xx families.
#: v3: shared-state mutation sites, durable-write sites, RNG-escape
#: sites and module-scope bindings for the SL10xx concurrency family.
#: v4: dropped the SL7xx unit terms, SL8xx perf sites, and the SL904
#: identifier and ``__all__`` tables.
#: v5: dropped the ``*args``/``**kwargs`` flags and the import-site scope
#: flag (read only by the retired SL903).
#: v6: a lambda's defaults are evaluated (calls there are recorded).
SUMMARY_VERSION = 6

#: Pseudo-function name for statements executed at import time.
MODULE_BODY = "<module>"

# A callee term: None | ["c", raw_callee]
Term = Optional[List[str]]


# -- summary dataclasses ----------------------------------------------------


@dataclass
class CallSite:
    """One call expression inside a function body."""

    line: int
    #: Dotted callee spelling (``np.random.default_rng``); None when the
    #: callee is not a Name/Attribute chain (``handlers[k]()``).
    raw: Optional[str]
    nargs: int = 0
    nkw: int = 0
    #: ``*args`` / ``**kwargs`` present — argument binding is not mapped.
    star: bool = False
    #: The head identifier is a local variable — dynamic dispatch.
    local_head: bool = False

    def to_json(self) -> list:
        return [self.line, self.raw, self.nargs, self.nkw,
                int(self.star), int(self.local_head)]

    @classmethod
    def from_json(cls, data: list) -> "CallSite":
        line, raw, nargs, nkw, star, local_head = data
        return cls(line=line, raw=raw, nargs=nargs, nkw=nkw, star=bool(star),
                   local_head=bool(local_head))


@dataclass
class FunctionSummary:
    """One function/method (or the module body) as the graph sees it."""

    qname: str  # "func", "Class.method", "outer.inner", or "<module>"
    line: int
    cls: Optional[str] = None
    #: Positional-capable parameter names, in order (incl. self/cls).
    posparams: List[str] = field(default_factory=list)
    kwonly: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    #: Locally detected sinks: (line, kind); kinds: "set-iter".
    sinks: List[Tuple[int, str]] = field(default_factory=list)
    #: Locally defined nested functions: bare name -> qname.
    nested: Dict[str, str] = field(default_factory=dict)
    has_value_return: bool = False
    #: Binding-relevant decorators only: "staticmethod" / "classmethod".
    decorators: List[str] = field(default_factory=list)
    #: Shared-state mutation sites, ``[line, kind, head, detail]``;
    #: kinds: "global" (assignment to a ``global``-declared name),
    #: "store" (``X[...] = v`` / ``X.attr = v`` where ``X`` is not a
    #: local), "cls-store" (store through ``cls``), "mutcall"
    #: (``X.append/update/...`` where ``X`` is not a local).  The SL1001
    #: pass resolves heads against module/class bindings.
    mutations: List[list] = field(default_factory=list)
    #: Durable-write sites, ``[line, kind, detail]``; kinds: "open-w"
    #: (``open(..., "w"/"wb"/"x")``), "write-text" / "write-bytes"
    #: (``path.write_text/write_bytes`` calls).  ``json.dump`` /
    #: ``pickle.dump`` / ``np.savez`` sinks are resolved from call edges
    #: at graph time instead (import-alias aware).
    writes: List[list] = field(default_factory=list)
    #: Cross-process RNG hazard sites, ``[line, kind, name]``; kinds:
    #: "loop-stream" (an ``RngRegistry`` built before a loop is streamed
    #: inside it — per-cell state reuse), "spawn-arg" (an RNG-carrying
    #: object pickled into a ``Process(...)`` spawn).
    rng_sites: List[list] = field(default_factory=list)

    @property
    def implicit_first_param(self) -> bool:
        """True when calls through an instance bind ``self``/``cls``."""
        return self.cls is not None and "staticmethod" not in self.decorators

    def to_json(self) -> dict:
        return {
            "q": self.qname, "ln": self.line, "cls": self.cls,
            "pp": self.posparams, "kw": self.kwonly,
            "calls": [c.to_json() for c in self.calls],
            "sinks": [list(s) for s in self.sinks],
            "nested": self.nested,
            "hvr": int(self.has_value_return),
            "dec": self.decorators,
            "mut": [list(m) for m in self.mutations],
            "wr": [list(w) for w in self.writes],
            "rng": [list(r) for r in self.rng_sites],
        }

    @classmethod
    def from_json(cls, d: dict) -> "FunctionSummary":
        return cls(
            qname=d["q"], line=d["ln"], cls=d["cls"],
            posparams=list(d["pp"]), kwonly=list(d["kw"]),
            calls=[CallSite.from_json(c) for c in d["calls"]],
            sinks=[(s[0], s[1]) for s in d["sinks"]],
            nested=dict(d["nested"]),
            has_value_return=bool(d["hvr"]),
            decorators=list(d["dec"]),
            mutations=[list(m) for m in d["mut"]],
            writes=[list(w) for w in d["wr"]],
            rng_sites=[list(r) for r in d["rng"]],
        )


@dataclass
class FileSummary:
    """Everything the whole-program passes need from one source file."""

    rel: str
    module: str  # fully dotted, e.g. "repro.net.engine"
    #: Local binding -> fully qualified target ("np" -> "numpy",
    #: "Engine" -> "repro.net.engine.Engine").
    imports: Dict[str, str] = field(default_factory=dict)
    #: Modules star-imported (``from m import *``), in source order.
    star_imports: List[str] = field(default_factory=list)
    #: Top-level definitions: name -> "func" | "class".
    defs: Dict[str, str] = field(default_factory=dict)
    #: Class name -> {"bases": [raw dotted], "methods": [names]}.
    classes: Dict[str, Dict[str, List[str]]] = field(default_factory=dict)
    functions: List[FunctionSummary] = field(default_factory=list)
    #: Suppression comments: line -> sorted rule ids ("*" = all).
    suppressions: Dict[int, List[str]] = field(default_factory=dict)
    #: (lineno, message) when the file does not parse.
    parse_error: Optional[Tuple[int, str]] = None
    #: Import statements as ``[line, bound name, target fq]``
    #: (bound name is None for ``from m import *``) — the SL9xx layering
    #: rules work off these, not off the resolved ``imports`` table.
    import_sites: List[list] = field(default_factory=list)
    #: Names bound at module scope by assignment (sorted) — ``defs``
    #: only records functions and classes; SL1001 resolves mutation
    #: heads against the union of both plus the import table.
    module_globals: List[str] = field(default_factory=list)

    @property
    def package(self) -> str:
        head = self.rel.split("/", 1)[0]
        return head[:-3] if head.endswith(".py") else head

    def function(self, qname: str) -> Optional[FunctionSummary]:
        for fn in self.functions:
            if fn.qname == qname:
                return fn
        return None

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        rules = self.suppressions.get(line)
        return bool(rules) and (rule_id in rules or "*" in rules)

    def to_json(self) -> dict:
        return {
            "rel": self.rel, "module": self.module,
            "imports": self.imports, "stars": self.star_imports,
            "defs": self.defs, "classes": self.classes,
            "funcs": [f.to_json() for f in self.functions],
            "supp": {str(k): v for k, v in sorted(self.suppressions.items())},
            "err": list(self.parse_error) if self.parse_error else None,
            "sites": [list(s) for s in self.import_sites],
            "mg": self.module_globals,
        }

    @classmethod
    def from_json(cls, d: dict) -> "FileSummary":
        return cls(
            rel=d["rel"], module=d["module"],
            imports=dict(d["imports"]), star_imports=list(d["stars"]),
            defs=dict(d["defs"]), classes=dict(d["classes"]),
            functions=[FunctionSummary.from_json(f) for f in d["funcs"]],
            suppressions={int(k): list(v) for k, v in d["supp"].items()},
            parse_error=tuple(d["err"]) if d["err"] else None,
            import_sites=[list(s) for s in d["sites"]],
            module_globals=list(d["mg"]),
        )


# -- extraction -------------------------------------------------------------

#: Method names that mutate their receiver in place (SL1001 mutcall).
_MUTATING_METHODS = frozenset({
    "append", "appendleft", "add", "update", "setdefault", "pop", "popitem",
    "extend", "insert", "remove", "discard", "clear", "sort",
})

#: ``open`` mode characters that make the call a durable write (SL1002).
#: Append mode ("a") is excluded by design: append-only journals (the
#: bench ledger) are a different durability protocol.
_WRITE_MODE_CHARS = ("w", "x")


def rng_like_name(name: str) -> str:
    """Why *name* conventionally carries an RNG object; "" if it doesn't.

    The tree's naming convention (enforced by the SL4xx family) is that
    generators and registries travel under ``rng`` / ``*_rng`` /
    ``rng_*`` names — the SL1004 escape analysis leans on the same
    convention.
    """
    if name == "rng" or name.endswith("_rng") or name.startswith("rng_"):
        return f"`{name}` is an RNG-conventional name"
    return ""


def _rng_valued(name: str, ctx: "_FuncCtx") -> bool:
    """*name* is locally bound from an RNG constructor or stream."""
    term = ctx.env.get(name)
    if not term or term[0] != "c":
        return False
    tail = str(term[1]).split(".")[-1]
    return tail in ("RngRegistry", "default_rng", "stream", "fork")


def _head_name(node: ast.AST):
    """The base identifier of an attribute/subscript chain, or None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _LoopInfo:
    """Per-statement-loop bookkeeping for the loop-invariance checks."""

    def __init__(self):
        #: names and dotted chains (re)bound inside the loop — a stream
        #: call through one of these is not loop-invariant (SL1004).
        self.stores: set = set()


class _FuncCtx:
    """Mutable state while walking one function body."""

    def __init__(self, qname: str, cls: Optional[str], line: int):
        self.summary = FunctionSummary(qname=qname, cls=cls, line=line)
        #: local name -> callee term (for propagation through assignments)
        self.env: Dict[str, Term] = {}
        #: every locally bound name (params, assignments, defs)
        self.local_names: set = set()
        #: stack of statement loops currently being walked
        self.loops: List[_LoopInfo] = []
        #: names declared ``global`` in this function (for SL1001)
        self.globals_decl: set = set()


class _Summarizer:
    """Single-pass AST walk producing a :class:`FileSummary`."""

    def __init__(self, rel: str, module: str, suppressions: Dict[int, FrozenSet[str]]):
        self.out = FileSummary(
            rel=rel, module=module,
            suppressions={line: sorted(rules)
                          for line, rules in sorted(suppressions.items())},
        )
        self._package = module if rel.endswith("__init__.py") else (
            module.rsplit(".", 1)[0] if "." in module else module)
        #: Names assigned at module scope (finalized into module_globals).
        self._module_names: set = set()
        #: >0 while walking a class body: class-level bindings (dataclass
        #: fields, class attributes) run in the module ctx but are *not*
        #: module globals — SL1001 sees them as cls/attribute state.
        self._class_depth = 0

    # -- imports ------------------------------------------------------------

    def _record_import(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    self.out.imports[alias.asname] = alias.name
                    bound = alias.asname
                else:
                    # ``import a.b.c`` binds the top-level name ``a``.
                    head = alias.name.split(".", 1)[0]
                    self.out.imports[head] = head
                    bound = head
                self.out.import_sites.append([node.lineno, bound, alias.name])
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                pkg_parts = self._package.split(".")
                if node.level > 1:
                    pkg_parts = pkg_parts[:len(pkg_parts) - (node.level - 1)]
                prefix = ".".join(pkg_parts)
                base = f"{prefix}.{base}" if base else prefix
            for alias in node.names:
                if alias.name == "*":
                    if base not in self.out.star_imports:
                        self.out.star_imports.append(base)
                    self.out.import_sites.append([node.lineno, None, base])
                else:
                    bound = alias.asname or alias.name
                    self.out.imports[bound] = f"{base}.{alias.name}"
                    self.out.import_sites.append(
                        [node.lineno, bound, f"{base}.{alias.name}"])

    # -- statements ---------------------------------------------------------

    def run(self, tree: ast.Module) -> FileSummary:
        ctx = _FuncCtx(MODULE_BODY, None, 1)
        self._walk_stmts(tree.body, ctx, prefix="", cls=None)
        self.out.functions.append(ctx.summary)
        self.out.module_globals = sorted(self._module_names)
        return self.out

    def _walk_stmts(self, stmts, ctx: _FuncCtx, prefix: str,
                    cls: Optional[str]) -> None:
        for st in stmts:
            self._walk_stmt(st, ctx, prefix, cls)

    def _walk_stmt(self, st: ast.stmt, ctx: _FuncCtx, prefix: str,
                   cls: Optional[str]) -> None:
        if isinstance(st, (ast.Import, ast.ImportFrom)):
            self._record_import(st)
        elif isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._function(st, ctx, prefix, cls)
        elif isinstance(st, ast.ClassDef):
            self._class(st, ctx, prefix)
        elif isinstance(st, ast.Assign):
            self._assign(st.targets, st.value, st, ctx)
        elif isinstance(st, ast.AnnAssign):
            if st.value is not None:
                self._assign([st.target], st.value, st, ctx)
            elif isinstance(st.target, ast.Name):
                ctx.local_names.add(st.target.id)
                if ctx.summary.qname == MODULE_BODY \
                        and self._class_depth == 0:
                    self._module_names.add(st.target.id)
        elif isinstance(st, ast.AugAssign):
            self._augassign(st, ctx)
        elif isinstance(st, ast.Return):
            if st.value is not None:
                self._eval(st.value, ctx)
                ctx.summary.has_value_return = True
        elif isinstance(st, (ast.For, ast.AsyncFor)):
            if is_setish(st.iter):
                ctx.summary.sinks.append((st.iter.lineno, "set-iter"))
            # The iterable is evaluated once, in the *enclosing* scope.
            self._eval(st.iter, ctx)
            ctx.loops.append(_LoopInfo())
            self._bind_target(st.target, None, ctx)
            self._walk_stmts(st.body, ctx, prefix, cls)
            ctx.loops.pop()
            self._walk_stmts(st.orelse, ctx, prefix, cls)
        elif isinstance(st, ast.While):
            # The test re-evaluates every iteration: count it as loop body.
            ctx.loops.append(_LoopInfo())
            self._eval(st.test, ctx)
            self._walk_stmts(st.body, ctx, prefix, cls)
            ctx.loops.pop()
            self._walk_stmts(st.orelse, ctx, prefix, cls)
        elif isinstance(st, ast.Try):
            self._walk_stmts(st.body, ctx, prefix, cls)
            for handler in st.handlers:
                if handler.type is not None:
                    self._eval(handler.type, ctx)
                if handler.name:
                    ctx.local_names.add(handler.name)
                self._walk_stmts(handler.body, ctx, prefix, cls)
            self._walk_stmts(st.orelse, ctx, prefix, cls)
            self._walk_stmts(st.finalbody, ctx, prefix, cls)
        elif isinstance(st, ast.Global):
            ctx.globals_decl.update(st.names)
        else:
            # If/With/Match/Raise/Assert/Delete/Expr/...: no bookkeeping
            # of their own, only their children's.
            self._walk_children(st, ctx, prefix, cls)

    def _walk_children(self, node: ast.AST, ctx: _FuncCtx, prefix: str,
                       cls: Optional[str]) -> None:
        """Walk every child of *node* in field order.

        Statements go to :meth:`_walk_stmt`, store targets (``with ... as
        x``) are bound, other expressions are evaluated, and helper nodes
        (``withitem``, ``match_case``, operators) are walked through.
        """
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._walk_stmt(child, ctx, prefix, cls)
            elif isinstance(getattr(child, "ctx", None), ast.Store):
                self._bind_target(child, None, ctx)
            elif isinstance(child, ast.expr):
                self._eval(child, ctx)
            else:
                self._walk_children(child, ctx, prefix, cls)

    def _function(self, st, ctx: _FuncCtx, prefix: str, cls: Optional[str]) -> None:
        # Decorators and defaults evaluate in the *enclosing* scope.
        binding_decos = []
        for deco in st.decorator_list:
            name = dotted_name(deco)
            if name in ("staticmethod", "classmethod"):
                binding_decos.append(name)
            self._eval(deco, ctx)
        self._defaults(st.args, ctx)

        qname = f"{prefix}{st.name}"
        child = _FuncCtx(qname, cls, st.lineno)
        fn = child.summary
        fn.decorators = binding_decos
        args = st.args
        fn.posparams = [a.arg for a in args.posonlyargs + args.args]
        fn.kwonly = [a.arg for a in args.kwonlyargs]
        child.local_names.update(fn.posparams + fn.kwonly)
        for star in (args.vararg, args.kwarg):
            if star is not None:
                child.local_names.add(star.arg)

        self._walk_stmts(st.body, child, prefix=f"{qname}.", cls=cls)
        self.out.functions.append(fn)

        # Record the definition in the enclosing scope: a top-level def,
        # a method (recorded via its class), or a nested function.
        if ctx.summary.qname == MODULE_BODY and cls is None:
            self.out.defs.setdefault(st.name, "func")
        elif ctx.summary.qname != MODULE_BODY:
            ctx.summary.nested[st.name] = qname
            ctx.local_names.add(st.name)

    def _class(self, st: ast.ClassDef, ctx: _FuncCtx, prefix: str) -> None:
        for deco in st.decorator_list:
            self._eval(deco, ctx)
        bases: List[str] = []
        for base in st.bases:
            raw = dotted_name(base)
            if raw:
                bases.append(raw)
            else:
                self._eval(base, ctx)
        for kw in st.keywords:
            self._eval(kw.value, ctx)

        cls_qname = f"{prefix}{st.name}"
        methods: List[str] = []
        self._class_depth += 1
        try:
            for sub in st.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(sub.name)
                    self._function(sub, ctx, prefix=f"{cls_qname}.",
                                   cls=cls_qname)
                else:
                    # Class-level assignments etc. run at import time.
                    self._walk_stmt(sub, ctx, prefix=f"{cls_qname}.",
                                    cls=cls_qname)
        finally:
            self._class_depth -= 1

        if ctx.summary.qname == MODULE_BODY and prefix == "":
            self.out.defs.setdefault(st.name, "class")
            self.out.classes[st.name] = {"bases": bases, "methods": methods}
        else:
            ctx.local_names.add(st.name)

    # -- assignments --------------------------------------------------------

    @staticmethod
    def _loop_store(name: Optional[str], ctx: _FuncCtx) -> None:
        """A (re)binding inside every currently open loop."""
        if name:
            for loop in ctx.loops:
                loop.stores.add(name)

    def _bind_target(self, target: ast.AST, term: Term, ctx: _FuncCtx) -> None:
        if isinstance(target, ast.Name):
            if target.id in ctx.globals_decl:
                ctx.summary.mutations.append(
                    [target.lineno, "global", target.id, target.id])
            self._loop_store(target.id, ctx)
            ctx.local_names.add(target.id)
            if ctx.summary.qname == MODULE_BODY and self._class_depth == 0:
                self._module_names.add(target.id)
            if term is not None:
                ctx.env[target.id] = term
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, None, ctx)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            self._record_store(target, ctx)
            if isinstance(target, ast.Attribute):
                self._loop_store(dotted_name(target), ctx)
            self._eval(target.value, ctx)

    def _record_store(self, target: ast.AST, ctx: _FuncCtx) -> None:
        """A subscript/attribute store through a non-local head (SL1001)."""
        head = _head_name(target)
        if head is None or head == "self":
            return
        if head != "cls" and (head in ctx.local_names
                              or head in ctx.summary.nested):
            return
        detail = dotted_name(target) or f"{head}[...]"
        kind = "cls-store" if head == "cls" else "store"
        ctx.summary.mutations.append([target.lineno, kind, head, detail])

    def _assign(self, targets, value, st, ctx: _FuncCtx) -> None:
        term = self._eval(value, ctx)
        for target in targets:
            self._bind_target(target, term, ctx)

    def _augassign(self, st: ast.AugAssign, ctx: _FuncCtx) -> None:
        self._eval(st.value, ctx)
        if isinstance(st.target, ast.Name):
            if st.target.id in ctx.globals_decl:
                ctx.summary.mutations.append(
                    [st.target.lineno, "global", st.target.id, st.target.id])
            self._loop_store(st.target.id, ctx)
            ctx.local_names.add(st.target.id)
        elif isinstance(st.target, (ast.Attribute, ast.Subscript)):
            self._record_store(st.target, ctx)
            if isinstance(st.target, ast.Attribute):
                self._loop_store(dotted_name(st.target), ctx)
            self._eval(st.target.value, ctx)

    def _defaults(self, args: ast.arguments, ctx: _FuncCtx) -> None:
        """Evaluate parameter defaults in the enclosing scope *ctx*."""
        for default in args.defaults + [d for d in args.kw_defaults
                                        if d is not None]:
            self._eval(default, ctx)

    # -- expressions --------------------------------------------------------

    def _eval(self, node: ast.expr, ctx: _FuncCtx) -> Term:
        """Callee term of an expression; records calls and sites."""
        if isinstance(node, ast.Name):
            return ctx.env.get(node.id)
        if isinstance(node, ast.Call):
            return self._call(node, ctx)
        if isinstance(node, ast.BinOp):
            return self._binop(node, ctx)
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand, ctx)
        if isinstance(node, ast.IfExp):
            self._eval(node.test, ctx)
            left = self._eval(node.body, ctx)
            right = self._eval(node.orelse, ctx)
            return left if left == right else None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            for gen in node.generators:
                if is_setish(gen.iter):
                    ctx.summary.sinks.append((gen.iter.lineno, "set-iter"))
                self._eval(gen.iter, ctx)
                self._bind_target(gen.target, None, ctx)
                for cond in gen.ifs:
                    self._eval(cond, ctx)
            if isinstance(node, ast.DictComp):
                self._eval(node.key, ctx)
                self._eval(node.value, ctx)
            else:
                self._eval(node.elt, ctx)
            return None
        if isinstance(node, (ast.Starred, ast.Await, ast.YieldFrom)):
            return self._eval(node.value, ctx)
        if isinstance(node, ast.NamedExpr):
            term = self._eval(node.value, ctx)
            self._bind_target(node.target, term, ctx)
            return term
        if isinstance(node, ast.Lambda):
            # Defaults run here, at definition; the body is charged to
            # the enclosing function too.
            self._defaults(node.args, ctx)
            self._eval(node.body, ctx)
        else:
            # Containers, Compare, BoolOp, Subscript, Slice, Yield,
            # f-strings, constants...: only their children carry facts.
            self._walk_children(node, ctx, "", None)
        return None

    def _binop(self, node: ast.BinOp, ctx: _FuncCtx) -> Term:
        left = self._eval(node.left, ctx)
        right = self._eval(node.right, ctx)
        if not isinstance(node.op, (ast.Add, ast.Sub)):
            return None
        if left is not None and right is not None:
            return left if left == right else None
        return left if left is not None else right

    def _call(self, node: ast.Call, ctx: _FuncCtx) -> Term:
        raw = dotted_name(node.func)
        head = raw.split(".", 1)[0] if raw is not None else None
        if raw is None and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Call):
            # ``Ctor().method(...)``: keep the pattern resolvable with a
            # ``().`` marker, and record the constructor call itself too.
            inner = dotted_name(node.func.value.func)
            if inner is not None:
                raw = f"{inner}().{node.func.attr}"
                head = inner.split(".", 1)[0]
            self._eval(node.func.value, ctx)
        elif raw is None:
            self._eval(node.func, ctx)
        site = CallSite(line=node.lineno, raw=raw)
        if raw is not None:
            site.local_head = (head in ctx.local_names
                               and head not in ("self", "cls")
                               and head not in ctx.summary.nested)
        self._conc_sites(node, raw, head, ctx)
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                site.star = True
                self._eval(arg.value, ctx)
                continue
            self._eval(arg, ctx)
            site.nargs += 1
        for kw in node.keywords:
            self._eval(kw.value, ctx)
            if kw.arg is None:
                site.star = True
                continue
            site.nkw += 1
        ctx.summary.calls.append(site)
        return ["c", raw] if raw is not None else None

    # -- concurrency-safety sites (SL10xx) ----------------------------------

    def _conc_sites(self, node: ast.Call, raw, head, ctx: _FuncCtx) -> None:
        """Record mutation / durable-write / RNG-escape facts for a call."""
        # X.append(...) & friends through a non-local head: in-place
        # mutation of shared state (resolved against bindings later).
        if raw is not None and "." in raw and "()." not in raw:
            method = raw.rsplit(".", 1)[1]
            if method in _MUTATING_METHODS and head not in (None, "self") \
                    and (head == "cls" or (head not in ctx.local_names
                                           and head not in ctx.summary.nested)):
                kind = "cls-store" if head == "cls" else "mutcall"
                ctx.summary.mutations.append(
                    [node.lineno, kind, head, raw])

        # Durable-write sinks the graph pass cannot see from edges alone.
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in ("write_text", "write_bytes"):
            kind = "write-text" if node.func.attr == "write_text" else "write-bytes"
            detail = dotted_name(node.func) or f"<expr>.{node.func.attr}"
            ctx.summary.writes.append([node.lineno, kind, detail])
        if raw in ("open", "io.open"):
            mode = None
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
                mode = node.args[1].value
            for kw in node.keywords:
                if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                    mode = kw.value.value
            if isinstance(mode, str) \
                    and any(c in mode for c in _WRITE_MODE_CHARS):
                ctx.summary.writes.append([node.lineno, "open-w", mode])

        # RNG escape sites (SL1004).  Only a *loop-invariant* stream name
        # is a hazard: ``registry.stream("x")`` inside a cell loop hands
        # every iteration the same generator (state crosses cells), while
        # ``registry.stream(f"jitter-{host}")`` derives per-entity
        # streams — the sanctioned pattern.
        if raw is not None and ctx.loops and "." in raw \
                and raw.rsplit(".", 1)[1] == "stream" and head is not None \
                and all(head not in lp.stores for lp in ctx.loops) \
                and _rng_valued(head, ctx) \
                and all(isinstance(a, ast.Constant) for a in node.args):
            ctx.summary.rng_sites.append([node.lineno, "loop-stream", head])
        if raw is not None and raw.split("().")[-1].rsplit(".", 1)[-1] == "Process":
            for name in self._spawn_arg_names(node):
                if rng_like_name(name) or _rng_valued(name, ctx):
                    ctx.summary.rng_sites.append(
                        [node.lineno, "spawn-arg", name])

    @staticmethod
    def _spawn_arg_names(node: ast.Call) -> List[str]:
        """Identifiers handed to a ``Process(...)`` spawn, in order."""
        exprs: List[ast.expr] = list(node.args)
        for kw in node.keywords:
            if kw.arg == "args" and isinstance(kw.value, (ast.Tuple, ast.List)):
                exprs.extend(kw.value.elts)
            elif kw.arg is not None:
                exprs.append(kw.value)
        seen: List[str] = []
        for expr in exprs:
            if isinstance(expr, ast.Name) and expr.id not in seen:
                seen.append(expr.id)
        return seen


def summarize_tree(tree: ast.Module, rel: str, module: str,
                   suppressions: Dict[int, FrozenSet[str]]) -> FileSummary:
    """Summarize an already-parsed module (one parse per file, total)."""
    return _Summarizer(rel, module, suppressions).run(tree)


def summarize_source(source: str, rel: str, module: str) -> FileSummary:
    """Parse and summarize one file; raises ``SyntaxError`` like ``ast``."""
    tree = ast.parse(source, filename=rel)
    return summarize_tree(tree, rel, module, parse_suppressions(source))
