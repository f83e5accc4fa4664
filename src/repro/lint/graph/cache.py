"""The incremental analysis cache (``.lint_cache/``).

One JSON document per (rule-set fingerprint, scan root), mapping each
file under the root to its content hash, its per-file findings, and its
whole-program summary.  Each root keeps its own document, so linting
one tree never evicts another's entries, and an entry can only come
back under the root (and so the module names) it was computed for.
On a warm run an unchanged file costs one ``sha256`` — no parse, no
rule execution — and the call graph is rebuilt from cached summaries
alone.  The fingerprint covers the summary schema version, the
registered rule catalogue (ids and severities), and the lint configuration,
so any change to the analyzer invalidates the whole cache rather than
serving stale results.

The cache is an *accelerator*, never a source of truth: a corrupt or
stale entry (hash mismatch, bad JSON, wrong version) is dropped and the
file transparently re-analyzed — reports are byte-identical either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.core.atomic import atomic_write_text, read_json_object
from repro.core.identity import canonical_json, content_key
from repro.lint.engine import SCOPES, all_rules
from repro.lint.findings import Finding, Severity
from repro.lint.graph.summary import SUMMARY_VERSION, FileSummary

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "CacheEntry",
    "CacheStats",
    "SummaryCache",
    "ruleset_fingerprint",
]

CACHE_VERSION = 1

#: Conventional location, relative to the invoking working directory.
DEFAULT_CACHE_DIR = ".lint_cache"


def _canonical(value):
    """A config value as JSON-stable data (sets sorted, mappings keyed)."""
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, Mapping):
        return {k: _canonical(value[k]) for k in sorted(value)}
    return value


def ruleset_fingerprint(config) -> str:
    """Stable hex key for (schema, rule catalogue, configuration).

    Any difference — a rule added or re-severitied, a config field
    changed, a summary-schema bump — yields a different fingerprint and
    therefore a disjoint cache file.  The configuration part covers every
    :class:`~repro.lint.config.LintConfig` field, so a new field can never
    be left out.
    """
    payload = {
        "cache_version": CACHE_VERSION,
        "summary_version": SUMMARY_VERSION,
        "rules": [[r.rule_id, r.severity.value, r.scope]
                  for r in all_rules(SCOPES)],
        "config": {f.name: _canonical(getattr(config, f.name))
                   for f in fields(config)},
    }
    return content_key(payload, 16)


@dataclass
class CacheStats:
    """Counters the incremental-cache tests assert against."""

    hits: int = 0
    misses: int = 0
    #: Entries present but unusable (content hash changed, bad schema).
    invalidated: int = 0
    #: The cache file existed but could not be read at all.
    corrupt: bool = False

    def describe(self) -> str:
        return (f"{self.hits} hit(s), {self.misses} miss(es), "
                f"{self.invalidated} invalidated"
                + (", corrupt cache dropped" if self.corrupt else ""))


@dataclass
class CacheEntry:
    """Everything cached for one file at one content hash."""

    sha256: str
    summary: FileSummary
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "sha256": self.sha256,
            "summary": self.summary.to_json(),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CacheEntry":
        def revive(d) -> Finding:
            return Finding(file=d["file"], line=int(d["line"]), rule=d["rule"],
                           severity=Severity(d["severity"]), message=d["message"])

        return cls(
            sha256=data["sha256"],
            summary=FileSummary.from_json(data["summary"]),
            findings=[revive(f) for f in data["findings"]],
            suppressed=[revive(f) for f in data["suppressed"]],
        )


class SummaryCache:
    """Load/store per-file analysis results under one fingerprint.

    ``root`` (a scan root) gives the root its own document next to the
    others; ``stats`` lets several documents count into one total.
    """

    def __init__(self, directory: Union[str, Path], fingerprint: str,
                 root: Optional[Union[str, Path]] = None,
                 stats: Optional[CacheStats] = None):
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        scope = ("" if root is None
                 else "-" + content_key(str(Path(root).resolve()), 8))
        self.path = self.directory / f"lint-cache-{fingerprint}{scope}.json"
        self.stats = stats if stats is not None else CacheStats()
        self._entries: Dict[str, CacheEntry] = {}
        self._loaded_raw: Dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            data = read_json_object(self.path)
            if data is None:
                return
            if data.get("version") != CACHE_VERSION \
                    or data.get("fingerprint") != self.fingerprint:
                raise ValueError("cache schema mismatch")
            files = data["files"]
            if not isinstance(files, dict):
                raise ValueError("bad cache payload")
        except (OSError, ValueError, KeyError):
            self.stats.corrupt = True
            return
        self._loaded_raw = files

    def lookup(self, rel: str, sha256: str) -> Optional[CacheEntry]:
        """The cached entry for *rel* iff its content hash still matches."""
        if rel not in self._loaded_raw:
            self.stats.misses += 1
            return None
        raw = self._loaded_raw[rel]
        try:
            if not isinstance(raw, dict) or raw.get("sha256") != sha256:
                raise ValueError("content changed or entry is not an object")
            entry = CacheEntry.from_json(raw)
        except (ValueError, KeyError, TypeError):
            self.stats.invalidated += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    def store(self, rel: str, entry: CacheEntry) -> None:
        self._entries[rel] = entry

    def save(self) -> None:
        """Atomically persist exactly the entries stored this run."""
        payload = {
            "version": CACHE_VERSION,
            "fingerprint": self.fingerprint,
            "files": {rel: self._entries[rel].to_json()
                      for rel in sorted(self._entries)},
        }
        atomic_write_text(self.path, canonical_json(payload), mkdir=True)
