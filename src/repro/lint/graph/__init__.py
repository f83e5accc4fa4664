"""Whole-program analysis layer: summaries, call graph, cache, driver.

This subpackage powers every ``repro lint`` run:

* :mod:`repro.lint.graph.summary` — per-file, JSON-serializable
  analysis summaries (the unit of incrementality);
* :mod:`repro.lint.graph.graphbuild` — the project symbol table and
  import/call graph, built from summaries alone;
* :mod:`repro.lint.graph.cache` — the ``.lint_cache/`` incremental
  store keyed by content hash + rule-set fingerprint;
* :mod:`repro.lint.graph.analyzer` — the driver combining the per-file
  engine, the cache, and the registered graph rules
  (SL6xx / SL9xx / SL10xx).
"""

from repro.lint.graph.analyzer import AnalysisResult, ProjectAnalyzer
from repro.lint.graph.cache import (
    CACHE_VERSION,
    DEFAULT_CACHE_DIR,
    CacheEntry,
    CacheStats,
    SummaryCache,
    ruleset_fingerprint,
)
from repro.lint.graph.graphbuild import Edge, ProjectGraph, build_graph
from repro.lint.graph.summary import (
    MODULE_BODY,
    SUMMARY_VERSION,
    CallSite,
    FileSummary,
    FunctionSummary,
    summarize_source,
    summarize_tree,
)

__all__ = [
    "AnalysisResult",
    "CACHE_VERSION",
    "CacheEntry",
    "CacheStats",
    "CallSite",
    "DEFAULT_CACHE_DIR",
    "Edge",
    "FileSummary",
    "FunctionSummary",
    "MODULE_BODY",
    "ProjectAnalyzer",
    "ProjectGraph",
    "SUMMARY_VERSION",
    "SummaryCache",
    "build_graph",
    "ruleset_fingerprint",
    "summarize_source",
    "summarize_tree",
]
