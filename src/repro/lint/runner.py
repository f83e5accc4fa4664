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
stats).  ``--fix`` hands the findings to the autofix engine
(:mod:`repro.lint.fix`) instead of gating on them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.baseline import Baseline
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.engine import PARSE_ERROR_RULE
from repro.lint.findings import Finding, Severity
from repro.lint.graph.analyzer import (AnalysisResult, ProjectAnalyzer,
                                       _iter_files)
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


def _git_changed_paths(roots: Sequence[Path],
                       out: Callable[[str], None]) -> Optional[Set[Path]]:
    """Absolute paths changed vs HEAD (tracked) plus untracked files.

    Returns None (analysis failure, exit 2) when no git repository sits
    above the first scan root or git itself fails.
    """
    import subprocess

    start = roots[0].resolve()
    candidates = (start, *start.parents) if start.is_dir() else start.parents
    repo = next((c for c in candidates if (c / ".git").exists()), None)
    if repo is None:
        out(f"error: --changed: no git repository found above {start}")
        return None
    changed: Set[Path] = set()
    for args in (("diff", "--name-only", "HEAD", "--"),
                 ("ls-files", "--others", "--exclude-standard")):
        try:
            proc = subprocess.run(
                ("git", "-C", str(repo)) + args,
                capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            out(f"error: --changed: git {args[0]} failed: {exc}")
            return None
        for line in proc.stdout.splitlines():
            if line.strip():
                changed.add((repo / line.strip()).resolve())
    return changed


def _changed_rels(roots: Sequence[Path], changed: Set[Path]) -> Set[str]:
    """Scan-relative rels of the changed files under the scan roots."""
    rels: Set[str] = set()
    for root in roots:
        for path, rel, _rootdir in _iter_files(root):
            if Path(path).resolve() in changed:
                rels.add(rel)
    return rels


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
    fix: bool = False,
    dry_run: bool = False,
    changed: bool = False,
    out: Callable[[str], None] = print,
) -> int:
    """Lint *paths* (default: the installed package) and report.

    Returns a process exit code (see module docstring).
    ``update_baseline`` rewrites the baseline to cover exactly the
    current findings and exits 0.  ``fix`` hands the kept and baselined
    findings to the autofix engine and prints unified diffs instead of
    gating; ``dry_run`` previews without writing.  ``changed`` scopes
    *reporting* to files changed vs git HEAD (plus untracked): the
    analysis itself still covers the full tree — whole-program rules
    need the whole program, and the incremental cache makes the
    unchanged remainder nearly free — but findings, the gate, and
    ``--fix`` apply to changed files only.
    """
    if changed and update_baseline:
        out("error: --changed cannot be combined with --update-baseline "
            "(a partial view must not rewrite the whole baseline)")
        return 2
    analysis = _analyze(paths, config, cache_dir, no_cache, out)
    if analysis is None:
        return 2
    roots, result = analysis
    report = result.report
    changed_rels: Optional[Set[str]] = None
    if changed:
        changed_paths = _git_changed_paths(roots, out)
        if changed_paths is None:
            return 2
        changed_rels = _changed_rels(roots, changed_paths)
        if not changed_rels:
            out("--changed: no changed files under the scanned roots")
            return 0

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
    if changed_rels is not None:
        kept = [f for f in kept if f.file in changed_rels]
        baselined = [f for f in baselined if f.file in changed_rels]
        stale = []  # staleness is undecidable from a partial view
    errors = [f for f in kept if f.severity is Severity.ERROR]
    warnings = [f for f in kept if f.severity is Severity.WARNING]
    parse_errors = [f for f in kept if f.rule == PARSE_ERROR_RULE]

    if fix:
        return _run_fix(roots, kept, baselined, dry_run,
                        bool(parse_errors), out)

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


def _run_fix(roots: Sequence[Path], kept: Sequence[Finding],
             baselined: Sequence[Finding], dry_run: bool,
             had_parse_errors: bool, out: Callable[[str], None]) -> int:
    """The ``--fix`` tail of a lint run: plan, preview, maybe write.

    Grandfathered findings are repaired too — that is how the baseline
    shrinks.
    """
    from repro.lint.fix import fix_findings

    rel_paths = {}
    for root in roots:
        for path, rel, _rootdir in _iter_files(root):
            rel_paths.setdefault(rel, path)
    result = fix_findings(list(kept) + list(baselined), rel_paths)
    for ff in result.changed_files():
        out(ff.diff())
    changed = len(result.changed_files())
    summary = (f"{len(result.fixed)} finding(s) fixable in {changed} "
               f"file(s); {len(result.skipped)} skipped")
    if dry_run:
        out(f"--fix --dry-run: {summary}; no files written")
    else:
        written = result.write()
        out(f"--fix: {summary}; {written} file(s) written")
    return 2 if had_parse_errors else 0


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
