"""The autofix driver behind ``repro lint --fix``.

Given the findings of a lint run and the files they live in, the engine
plans span edits per file via the per-rule rewriters, applies them
back-to-front, and verifies the result still parses before anything
touches disk.  ``--dry-run`` renders the same unified diffs
without writing.

Safety properties the tests pin down:

* **Idempotence** — fixing twice equals fixing once: a rewrite removes
  the trigger pattern, so the second pass plans zero edits.
* **Atomic per file** — overlapping edits or a post-edit parse failure
  skip the *whole file*; a file is either fixed and reparseable or
  untouched.
* **Determinism** — files are processed in sorted order and edits in
  plan order, so the diff output is byte-stable run to run.
"""

from __future__ import annotations

import ast
import difflib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.lint.findings import Finding
from repro.lint.fix.rewriters import (
    FIXABLE_RULES,
    Edit,
    apply_edits,
    plan_edits,
)

__all__ = ["FileFix", "FixResult", "fix_findings"]


@dataclass
class FileFix:
    """Outcome of fixing one file."""

    rel: str
    path: Path
    before: str
    after: str
    fixed: List[Finding] = field(default_factory=list)
    skipped: List[Finding] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return self.after != self.before

    def diff(self) -> str:
        lines = difflib.unified_diff(
            self.before.splitlines(keepends=True),
            self.after.splitlines(keepends=True),
            fromfile=f"a/{self.rel}", tofile=f"b/{self.rel}")
        return "".join(lines)


@dataclass
class FixResult:
    """Everything one ``--fix`` pass decided, before/after any writes."""

    files: List[FileFix] = field(default_factory=list)
    #: Findings whose file could not be mapped back to a scanned path.
    unmapped: List[Finding] = field(default_factory=list)

    @property
    def fixed(self) -> List[Finding]:
        return [f for ff in self.files for f in ff.fixed]

    @property
    def skipped(self) -> List[Finding]:
        return [f for ff in self.files for f in ff.skipped]

    def changed_files(self) -> List[FileFix]:
        return [ff for ff in self.files if ff.changed]

    def write(self) -> int:
        """Persist every changed file; returns the number written."""
        written = 0
        for ff in self.changed_files():
            ff.path.write_text(ff.after, encoding="utf-8")
            written += 1
        return written


def _rewrite_file(rel: str, path: Path, source: str,
                  findings: List[Finding]) -> FileFix:
    fix = FileFix(rel=rel, path=path, before=source, after=source)
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError:
        fix.skipped.extend(findings)
        return fix
    edits: List[Edit] = []
    seen_edits: Dict[Edit, bool] = {}
    for finding in findings:
        planned = plan_edits(tree, source, finding)
        if not planned:
            fix.skipped.append(finding)
            continue
        fresh = [e for e in planned if e not in seen_edits]
        for e in fresh:
            seen_edits[e] = True
        edits.extend(fresh)
        fix.fixed.append(finding)
    if not edits:
        return fix
    patched = apply_edits(source, edits)
    if patched is not None:
        try:
            ast.parse(patched, filename=rel)
        except SyntaxError:
            patched = None
    if patched is None:  # overlap or broken rewrite: leave the file alone
        fix.skipped.extend(fix.fixed)
        fix.fixed = []
        return fix
    fix.after = patched
    return fix


def fix_findings(findings: List[Finding],
                 rel_paths: Dict[str, Path]) -> FixResult:
    """Plan fixes for *findings* against the files in *rel_paths*.

    Only :data:`FIXABLE_RULES` findings are considered.  Nothing is
    written — the caller inspects/prints the result and calls
    :meth:`FixResult.write`.
    """
    result = FixResult()
    grouped: Dict[str, List[Finding]] = {}
    for finding in sorted(findings, key=Finding.sort_key):
        if finding.rule not in FIXABLE_RULES:
            continue
        if finding.file not in rel_paths:
            result.unmapped.append(finding)
            continue
        grouped.setdefault(finding.file, []).append(finding)
    for rel in sorted(grouped):
        path = rel_paths[rel]
        try:
            source = path.read_bytes().decode("utf-8")
        except OSError:
            result.unmapped.extend(grouped[rel])
            continue
        result.files.append(_rewrite_file(rel, path, source, grouped[rel]))
    return result
