"""Rule registry and the analysis engine.

A rule is a function ``check(ctx) -> iterable of (lineno, message)``
registered under a stable id (``SL101``...).  The engine parses each
file once, runs every applicable rule, attaches severities, and filters
``# simlint: ignore[RULE]`` suppressions.  Baseline filtering happens a
layer up (:mod:`repro.lint.baseline`) so reports can show both views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity

__all__ = [
    "Rule", "RULES", "rule", "all_rules",
    "GraphRule", "GRAPH_RULES", "graph_rule", "all_graph_rules",
    "LintEngine", "LintReport",
]

CheckFn = Callable[[FileContext], Iterable[Tuple[int, str]]]

#: Whole-program checks yield (rel path, lineno, message) triples.
GraphCheckFn = Callable[[object], Iterable[Tuple[str, int, str]]]

#: Scope of a rule: ``model`` rules only run on files inside the
#: configured model packages; ``tree`` rules run on every file.
MODEL = "model"
TREE = "tree"

#: Reserved id for files the engine cannot parse at all.
PARSE_ERROR_RULE = "SL001"


@dataclass(frozen=True)
class Rule:
    """A registered check with its catalogue metadata."""

    rule_id: str
    summary: str
    severity: Severity
    scope: str
    check: CheckFn

    def applies_to(self, ctx: FileContext) -> bool:
        if self.scope == MODEL and not ctx.in_model_code:
            return False
        return True


RULES: Dict[str, Rule] = {}


def rule(rule_id: str, summary: str, *, severity: Severity = Severity.ERROR,
         scope: str = TREE) -> Callable[[CheckFn], CheckFn]:
    """Class/function decorator registering a check under ``rule_id``."""
    if scope not in (MODEL, TREE):
        raise ValueError(f"unknown rule scope {scope!r}")

    def deco(fn: CheckFn) -> CheckFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = Rule(rule_id, summary, severity, scope, fn)
        return fn

    return deco


def all_rules() -> List[Rule]:
    """The shipped catalogue, sorted by id (import side effects included)."""
    import repro.lint.rules  # noqa: F401  -- ensure registration ran

    return sorted(RULES.values(), key=lambda r: r.rule_id)


@dataclass(frozen=True)
class GraphRule:
    """A whole-program check running over the project call graph.

    Unlike per-file :class:`Rule` checks, a graph rule sees every file at
    once (a :class:`repro.lint.graph.ProjectGraph`) and yields findings
    as ``(rel, lineno, message)`` triples — the analysis driver attaches
    severities and applies suppressions.
    """

    rule_id: str
    summary: str
    severity: Severity
    check: GraphCheckFn


GRAPH_RULES: Dict[str, GraphRule] = {}


def graph_rule(rule_id: str, summary: str, *,
               severity: Severity = Severity.ERROR
               ) -> Callable[[GraphCheckFn], GraphCheckFn]:
    """Decorator registering a whole-program check under ``rule_id``."""

    def deco(fn: GraphCheckFn) -> GraphCheckFn:
        if rule_id in RULES or rule_id in GRAPH_RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        GRAPH_RULES[rule_id] = GraphRule(rule_id, summary, severity, fn)
        return fn

    return deco


def all_graph_rules() -> List[GraphRule]:
    """The shipped whole-program catalogue, sorted by id."""
    import repro.lint.rules  # noqa: F401  -- ensure registration ran

    return sorted(GRAPH_RULES.values(), key=lambda r: r.rule_id)


@dataclass
class LintReport:
    """Outcome of one engine run (before baseline filtering)."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]


class LintEngine:
    """Runs the registered per-file rules over one source or context.

    This is the per-file pass of :class:`repro.lint.graph.ProjectAnalyzer`,
    which owns file discovery, the cache and the whole-program rules.
    """

    def __init__(self, config: Optional[LintConfig] = None):
        self.config = config or DEFAULT_CONFIG
        self._rules = all_rules()

    def lint_source(self, source: str, rel: str = "snippet.py",
                    report: Optional[LintReport] = None) -> List[Finding]:
        """Lint one blob of source text as if it lived at ``rel``.

        Returns the unsuppressed findings (and records suppressed ones on
        ``report`` when given).  Unparseable source yields a single
        ``SL001`` finding instead of raising.
        """
        report = report if report is not None else LintReport()
        try:
            ctx = FileContext.from_source(source, rel, self.config)
        except SyntaxError as exc:
            finding = Finding(rel, exc.lineno or 1, PARSE_ERROR_RULE,
                              Severity.ERROR, f"cannot parse: {exc.msg}")
            report.findings.append(finding)
            return [finding]
        return self.lint_context(ctx, report)

    def lint_context(self, ctx: FileContext,
                     report: Optional[LintReport] = None) -> List[Finding]:
        """Run the per-file rules over an already-parsed context."""
        report = report if report is not None else LintReport()
        rel = ctx.rel
        out: List[Finding] = []
        seen = set()
        for r in self._rules:
            if not r.applies_to(ctx):
                continue
            for lineno, message in r.check(ctx):
                key = (rel, lineno, r.rule_id, message)
                if key in seen:
                    continue
                seen.add(key)
                finding = Finding(rel, lineno, r.rule_id, r.severity, message)
                if ctx.is_suppressed(lineno, r.rule_id):
                    report.suppressed.append(finding)
                else:
                    out.append(finding)
        out.sort(key=Finding.sort_key)
        report.findings.extend(out)
        return out
