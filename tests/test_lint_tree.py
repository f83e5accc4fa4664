"""The tier-1 lint gate: the real ``src/repro`` tree must be clean.

"Clean" means no error-severity findings beyond what the checked-in
``lint_baseline.json`` grandfathers.  Run just this gate with
``python -m pytest -m lint``.
"""

import json

import pytest

from repro.lint import Baseline, Severity
from tests.conftest import BASELINE_PATH

pytestmark = pytest.mark.lint


def test_baseline_file_is_checked_in_and_loadable():
    assert BASELINE_PATH.is_file(), "lint_baseline.json must live at the repo root"
    baseline = Baseline.load(BASELINE_PATH)
    for entry in baseline.entries:
        assert entry.count >= 1
        assert not entry.justification.startswith("TODO"), (
            f"baseline entry {entry.file} [{entry.rule}] needs a real "
            f"justification, not a TODO marker")


def test_repro_tree_is_clean_modulo_baseline(cold_lint):
    _, code, out, _, _ = cold_lint
    assert code == 0, f"repro lint found new violations:\n{out}"


def test_repro_tree_has_no_stale_baseline_entries(tree_report):
    _, _, stale = Baseline.load(BASELINE_PATH).filter(tree_report.findings)
    assert stale == [], (
        "baseline entries whose violations are fixed should be removed: "
        + ", ".join(f"{e.file} [{e.rule}]" for e in stale))


def test_repro_tree_error_findings_are_fully_grandfathered(tree_report):
    """Every error in the tree must be explicitly forgiven by the baseline
    — the gate only ever lets recorded, justified debt through."""
    kept, _, _ = Baseline.load(BASELINE_PATH).filter(tree_report.findings)
    new_errors = [f for f in kept if f.severity is Severity.ERROR]
    assert new_errors == [], "\n".join(f.render() for f in new_errors)


def test_json_gate_output_parses(cold_lint):
    _, code, out, _, _ = cold_lint
    payload = json.loads(out)
    assert code in (0, 1)
    assert payload["files_scanned"] > 50  # the whole package, not a subset
    for finding in payload["findings"]:
        assert set(finding) == {"file", "line", "rule", "severity", "message"}
