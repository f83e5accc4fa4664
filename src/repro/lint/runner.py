"""End-to-end lint runs: path resolution, baseline handling, output.

This is the layer behind ``python -m repro.cli lint`` and the ``lint``
pytest gate.  Exit codes are a stable contract:

* **0** — clean (modulo baseline and inline suppressions);
* **1** — at least one error-severity finding;
* **2** — the analysis itself failed: unparseable file (``SL001``),
  unreadable baseline, bad paths.

Every run is one whole-program analysis
(:class:`repro.lint.graph.ProjectAnalyzer`): per-file rules plus the
SL6xx/SL9xx/SL10xx call-graph families, accelerated by the incremental
store in ``.lint_cache/`` (``--cache-dir`` moves it, ``--no-cache``
skips it).  ``run_graph_export`` backs ``repro lint graph`` (call-graph
stats).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.lint.baseline import Baseline
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.engine import PARSE_ERROR_RULE
from repro.lint.findings import Finding, Severity
from repro.lint.graph.analyzer import AnalysisResult, ProjectAnalyzer
from repro.lint.graph.cache import DEFAULT_CACHE_DIR
from repro.lint.sarif import render_sarif

__all__ = ["run_lint", "run_graph_export", "default_scan_root",
           "discover_baseline"]

BASELINE_FILENAME = "lint_baseline.json"


def _config_errors(config: Optional[LintConfig],
                   out: Callable[[str], None]) -> bool:
    """Report structural config errors as SL001 findings; True if any."""
    errors = (config or DEFAULT_CONFIG).validate()
    for message in errors:
        finding = Finding("<lint-config>", 1, PARSE_ERROR_RULE,
                          Severity.ERROR, f"invalid lint config: {message}")
        out(finding.render())
    return bool(errors)


def default_scan_root() -> Path:
    """The installed ``repro`` package — what ``repro lint`` checks."""
    import repro

    return Path(repro.__file__).resolve().parent


def discover_baseline(roots: Sequence[Path]) -> Optional[Path]:
    """Find ``lint_baseline.json``: cwd first, then above each scan root.

    Scanning the in-repo tree (``src/repro``) finds the checked-in file at
    the repository root two levels up.
    """
    candidates = [Path.cwd() / BASELINE_FILENAME]
    for root in roots:
        for parent in (root, *root.parents[:3]):
            candidates.append(parent / BASELINE_FILENAME)
    for cand in candidates:
        if cand.is_file():
            return cand
    return None


def _analyze(paths: Optional[Sequence[Union[str, Path]]],
             config: Optional[LintConfig],
             cache_dir: Optional[Union[str, Path]], no_cache: bool,
             out: Callable[[str], None],
             ) -> Optional[Tuple[List[Path], AnalysisResult]]:
    """Validate the scan roots and the config, then run the analysis.

    Returns ``(roots, result)``, or None once the reason the analysis
    cannot run has been reported (exit 2).
    """
    roots = [Path(p) for p in paths] if paths else [default_scan_root()]
    missing = [r for r in roots if not r.exists()]
    if missing:
        for r in missing:
            out(f"error: no such file or directory: {r}")
        return None
    if _config_errors(config, out):
        return None
    resolved_cache = None if no_cache else (cache_dir or DEFAULT_CACHE_DIR)
    analyzer = ProjectAnalyzer(config=config, cache_dir=resolved_cache)
    return roots, analyzer.run(roots)


def run_lint(
    paths: Optional[Sequence[Union[str, Path]]] = None,
    fmt: str = "text",
    baseline_path: Optional[Union[str, Path]] = None,
    no_baseline: bool = False,
    update_baseline: bool = False,
    config: Optional[LintConfig] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    no_cache: bool = False,
    out: Callable[[str], None] = print,
) -> int:
    """Lint *paths* (default: the installed package) and report.

    Returns a process exit code (see module docstring).
    ``update_baseline`` rewrites the baseline to cover exactly the
    current findings and exits 0.
    """
    analysis = _analyze(paths, config, cache_dir, no_cache, out)
    if analysis is None:
        return 2
    roots, result = analysis
    report = result.report

    baseline = Baseline()
    resolved_baseline: Optional[Path] = None
    if not no_baseline:
        resolved_baseline = (Path(baseline_path) if baseline_path
                             else discover_baseline(roots))
        if baseline_path and not resolved_baseline.is_file():
            if not update_baseline:
                out(f"error: baseline file not found: {resolved_baseline}")
                return 2
        elif resolved_baseline is not None:
            try:
                baseline = Baseline.load(resolved_baseline)
            except (ValueError, KeyError, json.JSONDecodeError) as exc:
                out(f"error: cannot read baseline {resolved_baseline}: {exc}")
                return 2

    if update_baseline:
        target = resolved_baseline or (Path.cwd() / BASELINE_FILENAME)
        Baseline.from_findings(report.findings, previous=baseline).save(target)
        out(f"wrote {len(report.findings)} finding(s) to {target}")
        return 0

    kept, baselined, stale = baseline.filter(report.findings)
    errors = [f for f in kept if f.severity is Severity.ERROR]
    warnings = [f for f in kept if f.severity is Severity.WARNING]
    parse_errors = [f for f in kept if f.rule == PARSE_ERROR_RULE]

    if fmt == "json":
        out(json.dumps({
            "files_scanned": report.files_scanned,
            "findings": [f.to_dict() for f in kept],
            "baselined": len(baselined),
            "suppressed": len(report.suppressed),
            "stale_baseline_entries": [
                {"file": e.file, "rule": e.rule} for e in stale
            ],
        }, indent=2))
    elif fmt == "sarif":
        out(render_sarif(kept, baselined))
    else:
        for f in kept:
            out(f.render())
        for e in stale:
            out(f"note: stale baseline entry {e.file} [{e.rule}] — violation "
                f"fixed; remove it (or run --update-baseline)")
        out(f"{report.files_scanned} file(s) scanned: {len(errors)} error(s), "
            f"{len(warnings)} warning(s), {len(baselined)} baselined, "
            f"{len(report.suppressed)} suppressed")
    if parse_errors:
        return 2
    return 1 if errors else 0


def run_graph_export(
    paths: Optional[Sequence[Union[str, Path]]] = None,
    config: Optional[LintConfig] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    no_cache: bool = False,
    out: Callable[[str], None] = print,
) -> int:
    """``repro lint graph``: project call-graph and cache stats."""
    analysis = _analyze(paths, config, cache_dir, no_cache, out)
    if analysis is None:
        return 2
    _roots, result = analysis
    stats = result.graph.stats()
    for key in sorted(stats):
        out(f"{key}: {stats[key]}")
    out(f"cache: {result.cache_stats.describe()}")
    return 0
