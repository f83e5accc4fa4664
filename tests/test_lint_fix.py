"""The autofix engine: golden rewrites, idempotence, dry-run safety.

Each fixer gets a golden before/after fixture (byte-exact comparison —
the rewriters promise token preservation, so the expected output is
fully determined).  On top of the per-fixer goldens the suite pins the
engine-level contracts: fixing twice equals fixing once, ``--dry-run``
writes nothing, and a fixed copy of the real ``src/repro`` still passes
the RNG byte-determinism tests in a subprocess.
"""

import hashlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.config import LintConfig
from repro.lint.fix import FIXABLE_RULES, apply_edits, fix_findings, plan_edits
from repro.lint.graph import ProjectAnalyzer

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).resolve().parents[1]

CFG = LintConfig(model_packages=frozenset({"sim"}), layers=(),
                 restricted_imports={})


def _project(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "proj"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    for pkg in {p.parent for p in root.rglob("*.py")} | {root}:
        init = pkg / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    return root


def _fix_tree(root: Path, config=CFG):
    """Lint *root*, fix everything fixable, return the FixResult."""
    findings = ProjectAnalyzer(config=config).run([root]).report.findings
    rel_paths = {p.relative_to(root).as_posix(): p
                 for p in root.rglob("*.py")}
    return fix_findings(findings, rel_paths)


def _tree_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# -- SL104: set iteration -> sorted(...) -------------------------------


SL104_BEFORE = (
    "def order(out):\n"
    "    for name in {\"b\", \"a\"}:\n"
    "        out.append(name)\n"
)

SL104_AFTER = (
    "def order(out):\n"
    "    for name in sorted({\"b\", \"a\"}):\n"
    "        out.append(name)\n"
)


def test_sl104_golden(tmp_path):
    root = _project(tmp_path, {"sim/mod.py": SL104_BEFORE})
    result = _fix_tree(root)
    assert [f.rule for f in result.fixed] == ["SL104"]
    assert result.write() == 1
    assert (root / "sim" / "mod.py").read_text(encoding="utf-8") \
        == SL104_AFTER


def test_sl104_comprehension_golden(tmp_path):
    before = "def names(tags):\n    return [t for t in set(tags)]\n"
    after = "def names(tags):\n    return [t for t in sorted(set(tags))]\n"
    root = _project(tmp_path, {"sim/mod.py": before})
    _fix_tree(root).write()
    assert (root / "sim" / "mod.py").read_text(encoding="utf-8") == after


# -- SL201: magic literal -> units constant ----------------------------


SL201_BEFORE = (
    "\"\"\"Chunking policy.\"\"\"\n"
    "\n"
    "def cap():\n"
    "    return 10 ** 6\n"
)

SL201_AFTER = (
    "\"\"\"Chunking policy.\"\"\"\n"
    "from repro import units\n"
    "\n"
    "def cap():\n"
    "    return units.MB\n"
)


def test_sl201_golden_adds_import(tmp_path):
    root = _project(tmp_path, {"sim/mod.py": SL201_BEFORE})
    result = _fix_tree(root)
    assert [f.rule for f in result.fixed] == ["SL201"]
    result.write()
    assert (root / "sim" / "mod.py").read_text(encoding="utf-8") \
        == SL201_AFTER


def test_sl201_golden_reuses_existing_binding(tmp_path):
    before = (
        "from repro import units\n"
        "\n"
        "def cap():\n"
        "    return 2 ** 20\n"
    )
    after = (
        "from repro import units\n"
        "\n"
        "def cap():\n"
        "    return units.MiB\n"
    )
    root = _project(tmp_path, {"sim/mod.py": before})
    _fix_tree(root).write()
    assert (root / "sim" / "mod.py").read_text(encoding="utf-8") == after


# -- engine contracts --------------------------------------------------


#: A worker-reachable non-atomic write: the SL1002 rewriter's input.
SL1002_BEFORE = (
    "def child_main(path, body):\n"
    "    path.write_text(body, encoding=\"utf-8\")\n"
    "    return path\n"
)

MIXED_FILES = {
    "sim/mod.py": SL104_BEFORE,
    "sim/sizes.py": SL201_BEFORE,
    "sim/engine.py": SL1002_BEFORE,
}

MIXED_CFG = LintConfig(model_packages=frozenset({"sim"}), layers=(),
                       restricted_imports={},
                       worker_entrypoints=("sim.engine.child_main",))


def _run_lint_fix(root, **kw):
    sink = io.StringIO()
    code = run_lint([root], no_cache=True, no_baseline=True,
                    config=MIXED_CFG, fix=True,
                    out=lambda s: sink.write(s + "\n"), **kw)
    return code, sink.getvalue()


def test_fix_twice_equals_fix_once(tmp_path):
    root = _project(tmp_path, MIXED_FILES)
    code, out = _run_lint_fix(root)
    assert code == 0
    assert "3 finding(s) fixable in 3 file(s)" in out
    once = _tree_hash(root)

    code, out = _run_lint_fix(root)
    assert code == 0
    assert "0 finding(s) fixable in 0 file(s)" in out
    assert _tree_hash(root) == once


def test_fixed_tree_relints_clean(tmp_path):
    root = _project(tmp_path, MIXED_FILES)
    _run_lint_fix(root)
    sink = io.StringIO()
    code = run_lint([root], no_cache=True, no_baseline=True,
                    config=MIXED_CFG, out=lambda s: sink.write(s + "\n"))
    assert code == 0
    for rule in FIXABLE_RULES:
        assert rule not in sink.getvalue()


def test_dry_run_leaves_tree_untouched(tmp_path):
    root = _project(tmp_path, MIXED_FILES)
    before = _tree_hash(root)
    code, out = _run_lint_fix(root, dry_run=True)
    assert code == 0
    assert "no files written" in out
    assert "--- a/sim/engine.py" in out
    assert "+++ b/sim/engine.py" in out
    assert _tree_hash(root) == before


def test_apply_edits_refuses_overlap():
    source = "x = 10 ** 6\n"
    assert apply_edits(source, [(1, 4, 1, 11, "units.MB"),
                                (1, 4, 1, 6, "99")]) is None


def test_apply_edits_handles_multibyte_lines():
    # ast columns are UTF-8 byte offsets; "é" is 2 bytes wide.
    source = "label = \"é\"  # name\nvals = {1, 2}\n"
    out = apply_edits(source, [(2, 7, 2, 7, "sorted("),
                               (2, 13, 2, 13, ")")])
    assert out == "label = \"é\"  # name\nvals = sorted({1, 2})\n"


def test_plan_edits_unknown_rule_returns_none():
    import ast as _ast

    from repro.lint.findings import Finding, Severity

    finding = Finding("x.py", 1, "SL999", Severity.ERROR, "nope")
    assert plan_edits(_ast.parse("x = 1\n"), "x = 1\n", finding) is None


# -- the real tree: fix + byte-determinism -----------------------------


def test_fixed_src_repro_stays_byte_deterministic(tmp_path, cold_lint):
    """Run the fixer over a copy of ``src/repro`` and re-run the RNG
    byte-determinism suite against the fixed copy in a subprocess.

    The copy has the real tree's relative paths and bytes, so its lint is
    served warm from the session's cold run."""
    src = tmp_path / "src"
    shutil.copytree(REPO_ROOT / "src" / "repro", src / "repro")
    sink = io.StringIO()
    code = run_lint([src / "repro"], cache_dir=cold_lint[0],
                    no_baseline=True, fix=True,
                    out=lambda s: sink.write(s + "\n"))
    assert code == 0, sink.getvalue()

    test_file = tmp_path / "test_sim_rng_trace.py"
    test_file.write_text(
        (REPO_ROOT / "tests" / "test_sim_rng_trace.py")
        .read_text(encoding="utf-8"), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", str(test_file)],
        capture_output=True, text=True, env=env, cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
