"""Rule registry and the per-file analysis engine.

A rule is a check registered under a stable id (``SL101``...) with a
scope: ``model`` and ``tree`` rules run per file, ``check(ctx) ->
iterable of (lineno, message)``; ``graph`` rules run once over the
project call graph, ``check(graph) -> iterable of (rel, lineno,
message)``.  Both kinds go through one filter, :func:`triage`, which
dedupes, attaches severities and applies ``# simlint: ignore[RULE]``
suppressions.  Baseline filtering happens a layer up
(:mod:`repro.lint.baseline`) so reports can show both views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.context import FileContext
from repro.lint.findings import Finding, Severity

__all__ = [
    "Rule", "RULES", "rule", "all_rules", "parse_error", "triage",
    "LintEngine", "LintReport",
]

CheckFn = Callable[[object], Iterable[tuple]]

#: Scope of a rule: ``model`` rules only run on files inside the
#: configured model packages; ``tree`` rules run on every file;
#: ``graph`` rules run once over the whole-program graph.
MODEL = "model"
TREE = "tree"
GRAPH = "graph"
SCOPES = (MODEL, TREE, GRAPH)

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
        """Whether this is a per-file rule that runs on *ctx*."""
        return self.scope == TREE or (self.scope == MODEL
                                      and ctx.in_model_code)


RULES: Dict[str, Rule] = {}


def rule(rule_id: str, summary: str, *, severity: Severity = Severity.ERROR,
         scope: str = TREE) -> Callable[[CheckFn], CheckFn]:
    """Function decorator registering a check under ``rule_id``."""
    if scope not in SCOPES:
        raise ValueError(f"unknown rule scope {scope!r}")

    def deco(fn: CheckFn) -> CheckFn:
        if rule_id in RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        RULES[rule_id] = Rule(rule_id, summary, severity, scope, fn)
        return fn

    return deco


def all_rules(scopes: Tuple[str, ...] = (MODEL, TREE)) -> List[Rule]:
    """The shipped rules of *scopes* (default: the per-file ones), by id."""
    import repro.lint.rules  # noqa: F401  -- ensure registration ran

    return sorted((r for r in RULES.values() if r.scope in scopes),
                  key=lambda r: r.rule_id)


def parse_error(rel: str, exc: SyntaxError) -> Finding:
    """The ``SL001`` finding for a file that does not parse."""
    return Finding(rel, exc.lineno or 1, PARSE_ERROR_RULE, Severity.ERROR,
                   f"cannot parse: {exc.msg}")


def triage(hits: Iterable[Tuple[Rule, str, int, str]],
           is_suppressed: Callable[[str, int, str], bool],
           report: "LintReport") -> List[Finding]:
    """Turn ``(rule, rel, line, message)`` hits into findings.

    Repeated hits are dropped; suppressed findings are appended to
    ``report.suppressed`` and the rest are returned sorted.
    """
    kept: List[Finding] = []
    seen = set()
    for r, rel, line, message in hits:
        key = (rel, line, r.rule_id, message)
        if key in seen:
            continue
        seen.add(key)
        finding = Finding(rel, line, r.rule_id, r.severity, message)
        if is_suppressed(rel, line, r.rule_id):
            report.suppressed.append(finding)
        else:
            kept.append(finding)
    kept.sort(key=Finding.sort_key)
    return kept


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
            finding = parse_error(rel, exc)
            report.findings.append(finding)
            return [finding]
        return self.lint_context(ctx, report)

    def lint_context(self, ctx: FileContext,
                     report: Optional[LintReport] = None) -> List[Finding]:
        """Run the per-file rules over an already-parsed context."""
        report = report if report is not None else LintReport()
        hits = ((r, ctx.rel, line, message) for r in self._rules
                if r.applies_to(ctx) for line, message in r.check(ctx))
        out = triage(hits, lambda _rel, line, rule_id:
                     ctx.is_suppressed(line, rule_id), report)
        report.findings.extend(out)
        return out
