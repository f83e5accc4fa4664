"""Static analysis of the simulation's invariants (``repro lint``).

The reproduction's claims rest on three mechanical invariants that
docstrings alone cannot enforce:

* **determinism** (SL1xx) — all randomness flows from one master seed
  through :class:`repro.sim.rng.RngRegistry` named streams; no wall-clock
  reads, no stdlib ``random``, no ad-hoc ``np.random.default_rng(...)``
  fallbacks, no iteration over hash-ordered sets in model code;
* **units** (SL2xx) — seconds / bytes / bits-per-second everywhere, via
  the named constants of :mod:`repro.units` rather than magic numbers;
* **kernel-safety** (SL3xx) — no mutable default arguments, no bare
  ``except:``, no float ``==`` against simulation-time expressions.

On top of the per-file families, every ``repro lint`` run performs the
whole-program analyses of :mod:`repro.lint.graph`:

* **transitive determinism** (SL6xx) — taint from wall-clock / OS-entropy
  / hash-order sinks anywhere in the tree back to model-code callers,
  through the project call graph;
* **architecture layering** (SL9xx) — upward imports against the
  declared layer DAG and cross-package private-module imports;
* **concurrency safety** (SL10xx) — shared-state mutation, non-atomic
  durable writes, shared-tier read-modify-writes and RNG escapes in
  code reachable from the configured ``worker_entrypoints``.

The analyzer is stdlib-``ast`` based (no third-party dependencies) and is
wired into the CLI (``python -m repro.cli lint``) and the test suite
(``python -m pytest -m lint``).  See ``docs/invariants.md`` for the rule
catalogue, suppression comments (``# simlint: ignore[RULE]``) and the
baseline workflow (``lint_baseline.json``).
"""

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.config import (
    DEFAULT_CONFIG,
    DEFAULT_LAYERS,
    LintConfig,
)
from repro.lint.engine import (
    LintEngine,
    LintReport,
    Rule,
    RULES,
    all_rules,
)
from repro.lint.findings import Finding, Severity
from repro.lint.runner import run_graph_export, run_lint
from repro.lint.sarif import render_sarif, to_sarif

# Importing the rule modules registers every shipped rule.
from repro.lint import rules as _rules  # noqa: F401  (registration side effect)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_CONFIG",
    "DEFAULT_LAYERS",
    "Finding",
    "LintConfig",
    "LintEngine",
    "LintReport",
    "RULES",
    "Rule",
    "Severity",
    "all_rules",
    "render_sarif",
    "run_graph_export",
    "run_lint",
    "to_sarif",
]
