"""``repro lint --fix`` — the autofix engine.

Repairs the auto-fixable rules
(:data:`~repro.lint.fix.rewriters.FIXABLE_RULES`: SL104 set-iteration
ordering, SL201 magic unit literals, SL1002 non-atomic writes) with
token-preserving span edits.  ``--dry-run`` previews the unified diffs
without writing.  See :mod:`repro.lint.fix.engine` for the safety
contract (idempotent, atomic per file, deterministic output).
"""

from repro.lint.fix.engine import FileFix, FixResult, fix_findings
from repro.lint.fix.rewriters import FIXABLE_RULES, apply_edits, plan_edits

__all__ = [
    "FIXABLE_RULES",
    "FileFix",
    "FixResult",
    "apply_edits",
    "fix_findings",
    "plan_edits",
]
