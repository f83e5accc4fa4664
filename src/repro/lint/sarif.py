"""SARIF 2.1.0 output for lint reports (``repro lint --format sarif``).

One run, one tool (``repro-lint``), one result per kept finding.
Baselined findings are emitted with ``suppressions`` so SARIF viewers
show them greyed-out rather than hiding that debt exists.  Output is
deterministic: rules and results are sorted, and the serialization uses
sorted keys — two identical analyses produce byte-identical SARIF.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro._version import __version__
from repro.lint.engine import PARSE_ERROR_RULE, SCOPES, all_rules
from repro.lint.findings import Finding, Severity

__all__ = ["SARIF_VERSION", "to_sarif", "render_sarif"]

SARIF_VERSION = "2.1.0"
_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
           "Schemata/sarif-schema-2.1.0.json")

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning"}


def _rule_catalogue() -> List[dict]:
    """Every shipped rule (per-file + whole-program), sorted by id."""
    catalogue: Dict[str, dict] = {
        PARSE_ERROR_RULE: {
            "id": PARSE_ERROR_RULE,
            "shortDescription": {"text": "file cannot be parsed"},
            "defaultConfiguration": {"level": "error"},
        },
    }
    for r in all_rules(SCOPES):
        catalogue[r.rule_id] = {
            "id": r.rule_id,
            "shortDescription": {"text": r.summary},
            "defaultConfiguration": {"level": _LEVELS[r.severity]},
        }
    return [catalogue[rid] for rid in sorted(catalogue)]


def _result(finding: Finding, suppressed_reason: Optional[str] = None) -> dict:
    result = {
        "ruleId": finding.rule,
        "level": _LEVELS[finding.severity],
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.file},
                "region": {"startLine": finding.line},
            },
        }],
    }
    if suppressed_reason is not None:
        result["suppressions"] = [{
            "kind": "external",
            "justification": suppressed_reason,
        }]
    return result


def to_sarif(kept: Sequence[Finding],
             baselined: Sequence[Finding] = ()) -> dict:
    """The SARIF log object for one lint run."""
    results = [_result(f) for f in sorted(kept, key=Finding.sort_key)]
    results += [_result(f, suppressed_reason="grandfathered in lint_baseline.json")
                for f in sorted(baselined, key=Finding.sort_key)]
    return {
        "$schema": _SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "version": __version__,
                    "informationUri":
                        "https://example.invalid/repro/docs/invariants",
                    "rules": _rule_catalogue(),
                },
            },
            "results": results,
        }],
    }


def render_sarif(kept: Sequence[Finding],
                 baselined: Sequence[Finding] = ()) -> str:
    """Serialized SARIF, deterministic (sorted keys, fixed indent)."""
    return json.dumps(to_sarif(kept, baselined), indent=2, sort_keys=True)
