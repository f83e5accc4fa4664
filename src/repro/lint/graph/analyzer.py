"""The analysis driver behind every ``repro lint`` run.

One :class:`ProjectAnalyzer` run:

1. walks the scan roots, content-hashing every ``*.py`` file;
2. reuses the cached per-file findings + summary for unchanged files,
   re-parsing and re-analyzing only what changed (see
   :mod:`repro.lint.graph.cache`);
3. rebuilds the project call graph from the (cached + fresh) summaries;
4. runs the registered whole-program rules (SL6xx taint, SL9xx
   layering, SL10xx concurrency) over the graph, through the same
   dedupe and suppression filter as the per-file rules
   (:func:`~repro.lint.engine.triage`).

The resulting :class:`~repro.lint.engine.LintReport` is byte-identical
whether the cache was cold, warm, stale, or corrupt — the cache is an
accelerator, not an input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.context import FileContext
from repro.lint.engine import (
    GRAPH,
    LintEngine,
    LintReport,
    all_rules,
    parse_error,
    triage,
)
from repro.lint.findings import Finding
from repro.lint.graph.cache import (
    CacheEntry,
    CacheStats,
    SummaryCache,
    ruleset_fingerprint,
)
from repro.lint.graph.graphbuild import ProjectGraph, build_graph
from repro.lint.graph.summary import FileSummary, summarize_tree

__all__ = ["AnalysisResult", "ProjectAnalyzer"]


@dataclass
class AnalysisResult:
    """Everything one whole-program run produced."""

    report: LintReport
    graph: ProjectGraph
    cache_stats: CacheStats
    summaries: Dict[str, FileSummary]


def _iter_files(root: Path):
    """(path, rel, rootdir) for every python file under *root*."""
    if root.is_file():
        yield root, root.name, root.parent
        return
    for path in sorted(root.rglob("*.py")):
        yield path, path.relative_to(root).as_posix(), root


def _module_name(rootpkg: str, rel: str) -> str:
    """``net/engine.py`` under root ``repro`` -> ``repro.net.engine``."""
    parts = rel[:-3].split("/")  # strip ".py"
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([rootpkg] + parts) if parts else rootpkg


class ProjectAnalyzer:
    """Whole-program lint: per-file rules + call-graph rules + cache."""

    def __init__(self, config: Optional[LintConfig] = None,
                 cache_dir: Optional[Union[str, Path]] = None):
        self.config = config or DEFAULT_CONFIG
        self.engine = LintEngine(config=self.config)
        self.graph_rules = all_rules((GRAPH,))
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None

    def _open_cache(self, root: Path,
                    stats: CacheStats) -> Optional[SummaryCache]:
        if self.cache_dir is None:
            return None
        return SummaryCache(self.cache_dir, ruleset_fingerprint(self.config),
                            root=root, stats=stats)

    # -- per-file pass ------------------------------------------------------

    def _analyze_file(self, path: Path, rel: str, module: str) -> CacheEntry:
        """Parse once; run the per-file rules and build the summary."""
        source = path.read_bytes().decode("utf-8")
        scratch = LintReport()
        try:
            ctx = FileContext.from_source(source, rel, self.config)
        except SyntaxError as exc:
            finding = parse_error(rel, exc)
            summary = FileSummary(rel=rel, module=module,
                                  parse_error=(exc.lineno or 1, str(exc.msg)))
            return CacheEntry(sha256="", summary=summary, findings=[finding])
        findings = self.engine.lint_context(ctx, scratch)
        summary = summarize_tree(ctx.tree, rel, module, ctx.suppressions)
        return CacheEntry(sha256="", summary=summary, findings=findings,
                          suppressed=list(scratch.suppressed))

    # -- the run ------------------------------------------------------------

    def run(self, roots: Sequence[Union[str, Path]]) -> AnalysisResult:
        stats = CacheStats()
        report = LintReport()
        summaries: Dict[str, FileSummary] = {}

        single_root = len(roots) == 1
        for root in [Path(r) for r in roots]:
            cache = self._open_cache(root, stats)
            rootpkg = (root.name if root.is_dir() else root.parent.name)
            for path, rel, _rootdir in _iter_files(root):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                entry = cache.lookup(rel, digest) if cache is not None else None
                if entry is None:
                    if cache is None:
                        stats.misses += 1
                    entry = self._analyze_file(path, rel,
                                               _module_name(rootpkg, rel))
                    entry.sha256 = digest
                if cache is not None:
                    cache.store(rel, entry)
                report.files_scanned += 1
                report.findings.extend(entry.findings)
                report.suppressed.extend(entry.suppressed)
                # several roots may share a relative path: key by the
                # path as scanned so every root's files reach the graph
                summaries[rel if single_root else path.as_posix()] = entry.summary
            if cache is not None:
                cache.save()

        graph = build_graph(summaries, self.config)
        report.findings.extend(self._graph_findings(graph, report))
        report.findings.sort(key=Finding.sort_key)
        report.suppressed.sort(key=Finding.sort_key)
        return AnalysisResult(report=report, graph=graph,
                              cache_stats=stats, summaries=summaries)

    def _graph_findings(self, graph: ProjectGraph,
                        report: LintReport) -> List[Finding]:
        """Run the graph rules, suppressing through each file's summary.

        A finding names its file by scan-relative path, so where two
        roots share that path a suppression in either file covers it.
        """
        by_rel: Dict[str, List[FileSummary]] = {}
        for summary in graph.summaries.values():
            by_rel.setdefault(summary.rel, []).append(summary)

        def is_suppressed(rel: str, line: int, rule_id: str) -> bool:
            return any(summary.is_suppressed(line, rule_id)
                       for summary in by_rel.get(rel, ()))

        hits = ((r, *hit) for r in self.graph_rules for hit in r.check(graph))
        return triage(hits, is_suppressed, report)
