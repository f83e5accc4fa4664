"""Behavior of the SL9xx layering rule family.

Each test builds a tiny multi-module project on disk and runs the
whole-program analyzer over it with a purpose-built
:class:`~repro.lint.config.LintConfig` — a two- or three-layer DAG —
then asserts on exactly which findings fire.
The configuration-validation tests at the bottom pin the SL001 / exit-2
contract for every structural misconfiguration.
"""

import io
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.config import LintConfig
from repro.lint.findings import Severity
from repro.lint.graph import ProjectAnalyzer

pytestmark = pytest.mark.lint


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


def _run(tmp_path: Path, files: dict, config: LintConfig):
    root = _project(tmp_path, files)
    analyzer = ProjectAnalyzer(config=config, cache_dir=None)
    return analyzer.run([root])


def _findings(result, prefix):
    return [f for f in result.report.findings if f.rule.startswith(prefix)]


# -- SL9xx: architecture layering --------------------------------------


def _layer_cfg(layers, restricted=None):
    return LintConfig(model_packages=frozenset(), layers=layers,
                      restricted_imports=restricted or {})


def test_sl901_upward_import(tmp_path):
    result = _run(tmp_path, {
        "util/helpers.py": (
            "from proj.sim.engine import step\n\n\n"
            "def wrapped():\n"
            "    return step()\n"
        ),
        "sim/engine.py": "def step():\n    return 0\n",
    }, _layer_cfg((("util",), ("sim",))))
    sl901 = _findings(result, "SL901")
    assert len(sl901) == 1
    f = sl901[0]
    assert f.severity is Severity.ERROR
    assert f.file == "util/helpers.py"
    assert "upward import: 'util' (layer 0) imports 'sim' (layer 1)" \
        in f.message
    # The legal direction produces nothing.
    assert _findings(result, "SL9") == sl901


def test_sl901_restricted_import(tmp_path):
    cfg = _layer_cfg((("util",), ("sim",), ("api",)),
                     restricted={"util": frozenset({"sim"})})
    result = _run(tmp_path, {
        "util/helpers.py": "def f():\n    return 0\n",
        "sim/engine.py": "from proj.util.helpers import f\n",
        "api/surface.py": "from proj.util.helpers import f\n",
    }, cfg)
    sl901 = _findings(result, "SL901")
    assert len(sl901) == 1
    assert sl901[0].file == "api/surface.py"
    assert "'api' imports restricted package 'util'" in sl901[0].message


def test_sl902_private_module_import(tmp_path):
    result = _run(tmp_path, {
        "util/_secret.py": "def f():\n    return 0\n",
        "util/facade.py": "from proj.util._secret import f\n",
        "sim/engine.py": "from proj.util._secret import f\n",
    }, _layer_cfg((("util",), ("sim",))))
    sl902 = _findings(result, "SL902")
    # Same-package access to the private module is fine; cross-package
    # access is the violation.
    assert len(sl902) == 1
    assert sl902[0].file == "sim/engine.py"
    assert "private to package 'util'" in sl902[0].message


def test_empty_layer_dag_disables_sl9xx(tmp_path):
    result = _run(tmp_path, {
        "util/helpers.py": "from proj.sim.engine import step\n",
        "sim/engine.py": "def step():\n    return 0\n",
    }, _layer_cfg(()))
    assert _findings(result, "SL9") == []


def test_packages_absent_from_dag_are_unconstrained(tmp_path):
    result = _run(tmp_path, {
        "extras/helpers.py": "from proj.sim.engine import step\n",
        "sim/engine.py": "def step():\n    return 0\n",
    }, _layer_cfg((("sim",),)))
    assert _findings(result, "SL901") == []


# -- configuration validation (SL001, exit 2) --------------------------


def _clean_tree(tmp_path):
    root = tmp_path / "clean"
    root.mkdir()
    (root / "ok.py").write_text("def f(x):\n    return x\n", encoding="utf-8")
    return root


def _lint_with(tmp_path, cfg):
    sink = io.StringIO()
    code = run_lint([_clean_tree(tmp_path)], no_baseline=True, no_cache=True,
                    config=cfg, out=lambda s: sink.write(s + "\n"))
    return code, sink.getvalue()


def test_config_duplicate_package_across_layers(tmp_path):
    cfg = LintConfig(layers=(("sim",), ("sim", "net")),
                     restricted_imports={})
    assert "more than one layer" in cfg.validate()[0]
    code, out = _lint_with(tmp_path, cfg)
    assert code == 2
    assert "SL001" in out
    assert "invalid lint config" in out
    assert "declares package 'sim' in more than one layer" in out


def test_config_restricted_target_not_in_dag(tmp_path):
    cfg = LintConfig(layers=(("sim",),),
                     restricted_imports={"ghost": frozenset({"sim"})})
    code, out = _lint_with(tmp_path, cfg)
    assert code == 2
    assert "restricted_imports names unknown package 'ghost'" in out


def test_config_restricted_importer_not_in_dag(tmp_path):
    cfg = LintConfig(layers=(("sim",),),
                     restricted_imports={"sim": frozenset({"ghost"})})
    code, out = _lint_with(tmp_path, cfg)
    assert code == 2
    assert "allows unknown package 'ghost' to import 'sim'" in out


def test_config_worker_entrypoint_unknown_package(tmp_path):
    cfg = LintConfig(layers=(("sim",),), restricted_imports={},
                     worker_entrypoints=("ghost.engine.step",))
    code, out = _lint_with(tmp_path, cfg)
    assert code == 2
    assert "worker entrypoint 'ghost.engine.step' names unknown package" \
        in out


def test_default_config_validates_clean():
    assert LintConfig().validate() == []
