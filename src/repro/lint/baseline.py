"""Grandfathered findings: the ``lint_baseline.json`` mechanism.

A baseline entry forgives up to ``count`` findings of one rule in one
file, with a human justification.  New violations past the grandfathered
count still fail the gate, so the baseline can only shrink debt, never
hide growth.  ``repro lint --update-baseline`` regenerates the file from
the current findings, preserving existing justifications.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.core.atomic import atomic_write_json
from repro.lint.findings import Finding

__all__ = ["Baseline", "BaselineEntry", "BASELINE_VERSION"]

BASELINE_VERSION = 1

_TODO_JUSTIFICATION = "TODO: justify or fix"


@dataclass(frozen=True)
class BaselineEntry:
    file: str
    rule: str
    count: int = 1
    justification: str = _TODO_JUSTIFICATION

    def key(self) -> Tuple[str, str]:
        return (self.file, self.rule)


@dataclass
class Baseline:
    """The set of grandfathered (file, rule) -> count entries."""

    entries: List[BaselineEntry] = field(default_factory=list)

    # -- persistence -----------------------------------------------------

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if data.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {data.get('version')!r} in {path}"
            )
        entries = [
            BaselineEntry(
                file=e["file"],
                rule=e["rule"],
                count=int(e.get("count", 1)),
                justification=e.get("justification", _TODO_JUSTIFICATION),
            )
            for e in data.get("entries", [])
        ]
        return cls(entries=entries)

    def save(self, path: Union[str, Path]) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "entries": [
                {
                    "file": e.file,
                    "rule": e.rule,
                    "count": e.count,
                    "justification": e.justification,
                }
                for e in sorted(self.entries, key=BaselineEntry.key)
            ],
        }
        atomic_write_json(path, payload, sort_keys=False, indent=2)

    # -- filtering -------------------------------------------------------

    def filter(self, findings: Sequence[Finding],
               ) -> Tuple[List[Finding], List[Finding], List[BaselineEntry]]:
        """Split findings into (kept, baselined); also return stale entries.

        For each (file, rule) the first ``count`` findings are forgiven;
        any excess is kept.  Entries that matched nothing are *stale* —
        the debt they recorded has been paid (or names a retired rule)
        and they should be removed.  Every run executes every registered
        rule, so no entry can be stale merely because its rule did not run.
        """
        budget: Dict[Tuple[str, str], int] = {}
        for e in self.entries:
            budget[e.key()] = budget.get(e.key(), 0) + e.count
        used: Dict[Tuple[str, str], int] = {}
        kept: List[Finding] = []
        baselined: List[Finding] = []
        for f in findings:
            key = (f.file, f.rule)
            if used.get(key, 0) < budget.get(key, 0):
                used[key] = used.get(key, 0) + 1
                baselined.append(f)
            else:
                kept.append(f)
        stale = [e for e in self.entries if used.get(e.key(), 0) == 0]
        return kept, baselined, stale

    @classmethod
    def from_findings(cls, findings: Sequence[Finding],
                      previous: "Baseline" = None) -> "Baseline":
        """Baseline covering exactly the given findings.

        Justifications from ``previous`` are carried over where the
        (file, rule) pair survives; new pairs get a TODO marker.
        """
        old = {e.key(): e.justification for e in previous.entries} if previous else {}
        counts: Dict[Tuple[str, str], int] = {}
        for f in findings:
            counts[(f.file, f.rule)] = counts.get((f.file, f.rule), 0) + 1
        entries = [
            BaselineEntry(file=file, rule=rule, count=n,
                          justification=old.get((file, rule), _TODO_JUSTIFICATION))
            for (file, rule), n in sorted(counts.items())
        ]
        return cls(entries=entries)
